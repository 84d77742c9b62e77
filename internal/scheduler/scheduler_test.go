package scheduler

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"bistro/internal/clock"
)

var t0 = time.Date(2011, 6, 12, 10, 0, 0, 0, time.UTC)

func job(sub string, fileID uint64, deadline time.Time) *Job {
	return &Job{
		FileID:     fileID,
		Subscriber: sub,
		Size:       1000,
		Release:    t0,
		Deadline:   deadline,
	}
}

func onePartition(policy PolicyKind) Config {
	return Config{
		Partitions: []PartitionConfig{{Name: "p0", Workers: 2, Policy: policy}},
	}
}

func mustNew(t *testing.T, cfg Config) *Scheduler {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := New(Config{Partitions: []PartitionConfig{{Workers: 0}}}); err == nil {
		t.Error("zero workers accepted")
	}
	if _, err := New(Config{Partitions: []PartitionConfig{{Workers: 2, BackfillWorkers: 2}}}); err == nil {
		t.Error("all-backfill partition accepted")
	}
}

func TestEDFOrder(t *testing.T) {
	s := mustNew(t, onePartition(EDF))
	s.Submit(job("a", 1, t0.Add(3*time.Minute)))
	s.Submit(job("b", 2, t0.Add(1*time.Minute)))
	s.Submit(job("c", 3, t0.Add(2*time.Minute)))
	var got []string
	for i := 0; i < 3; i++ {
		js := s.TryNext(0, LaneRealtime)
		if len(js) != 1 {
			t.Fatalf("claim %d = %v", i, js)
		}
		got = append(got, js[0].Subscriber)
		s.Done(js[0])
	}
	if got[0] != "b" || got[1] != "c" || got[2] != "a" {
		t.Fatalf("EDF order = %v", got)
	}
}

func TestFIFOOrder(t *testing.T) {
	s := mustNew(t, onePartition(FIFO))
	// Deadlines inverted relative to submission; FIFO ignores them.
	s.Submit(job("a", 1, t0.Add(3*time.Minute)))
	s.Submit(job("b", 2, t0.Add(1*time.Minute)))
	js := s.TryNext(0, LaneRealtime)
	if js[0].Subscriber != "a" {
		t.Fatalf("FIFO popped %s", js[0].Subscriber)
	}
}

func TestPrioEDFOrder(t *testing.T) {
	s := mustNew(t, onePartition(PrioEDF))
	j1 := job("a", 1, t0.Add(time.Minute))
	j1.Priority = 1
	j2 := job("b", 2, t0.Add(2*time.Minute))
	j2.Priority = 5
	s.Submit(j1)
	s.Submit(j2)
	js := s.TryNext(0, LaneRealtime)
	if js[0].Subscriber != "b" {
		t.Fatal("priority ignored")
	}
}

func TestMaxBenefitOrder(t *testing.T) {
	s := mustNew(t, onePartition(MaxBenefit))
	small := job("a", 1, t0)
	small.Size = 10
	small.Priority = 1
	big := job("b", 2, t0)
	big.Size = 1 << 20
	big.Priority = 1
	s.Submit(big)
	s.Submit(small)
	js := s.TryNext(0, LaneRealtime)
	if js[0].Subscriber != "a" {
		t.Fatal("max-benefit should prefer the denser (smaller) job")
	}
}

func TestPartitionIsolation(t *testing.T) {
	cfg := Config{Partitions: []PartitionConfig{
		{Name: "fast", Workers: 1, Policy: EDF},
		{Name: "slow", Workers: 1, Policy: EDF},
	}}
	s := mustNew(t, cfg)
	s.AssignSubscriber("viz", 0)
	s.AssignSubscriber("archive", 1)
	s.Submit(job("viz", 1, t0))
	s.Submit(job("archive", 2, t0))
	if js := s.TryNext(0, LaneRealtime); len(js) != 1 || js[0].Subscriber != "viz" {
		t.Fatalf("fast partition claim = %v", js)
	}
	if js := s.TryNext(1, LaneRealtime); len(js) != 1 || js[0].Subscriber != "archive" {
		t.Fatalf("slow partition claim = %v", js)
	}
}

func TestUnassignedSubscriberGoesToLastPartition(t *testing.T) {
	cfg := Config{Partitions: []PartitionConfig{
		{Name: "fast", Workers: 1, Policy: EDF},
		{Name: "slow", Workers: 1, Policy: EDF},
	}}
	s := mustNew(t, cfg)
	s.Submit(job("mystery", 1, t0))
	if js := s.TryNext(0, LaneRealtime); js != nil {
		t.Fatalf("fast partition got unassigned job: %v", js)
	}
	if js := s.TryNext(1, LaneRealtime); len(js) != 1 {
		t.Fatal("slow partition missing unassigned job")
	}
}

func TestInFlightCap(t *testing.T) {
	s := mustNew(t, onePartition(EDF))
	s.Submit(job("a", 1, t0))
	s.Submit(job("a", 2, t0.Add(time.Minute)))
	s.Submit(job("b", 3, t0.Add(2*time.Minute)))
	first := s.TryNext(0, LaneRealtime)
	if first[0].Subscriber != "a" {
		t.Fatalf("first = %v", first)
	}
	// a is at its cap; the next claim must skip to b.
	second := s.TryNext(0, LaneRealtime)
	if second == nil || second[0].Subscriber != "b" {
		t.Fatalf("second = %v", second)
	}
	// Nothing else claimable.
	if js := s.TryNext(0, LaneRealtime); js != nil {
		t.Fatalf("third = %v", js)
	}
	s.Done(first[0])
	if js := s.TryNext(0, LaneRealtime); js == nil || js[0].FileID != 2 {
		t.Fatalf("after done = %v", js)
	}
}

func TestGroupSameFile(t *testing.T) {
	cfg := onePartition(EDF)
	cfg.GroupSameFile = true
	s := mustNew(t, cfg)
	s.Submit(job("a", 7, t0))
	s.Submit(job("b", 7, t0.Add(time.Minute)))
	s.Submit(job("c", 8, t0.Add(2*time.Minute)))
	js := s.TryNext(0, LaneRealtime)
	if len(js) != 2 {
		t.Fatalf("group claim = %v", js)
	}
	for _, j := range js {
		if j.FileID != 7 {
			t.Fatalf("claimed wrong file: %v", j)
		}
	}
	if rest := s.TryNext(0, LaneRealtime); len(rest) != 1 || rest[0].FileID != 8 {
		t.Fatalf("rest = %v", rest)
	}
}

// Next claims a group into the buffer it is given: a worker passing
// its last group's slice back claims without allocating.
func TestNextClaimsIntoBuffer(t *testing.T) {
	cfg := onePartition(EDF)
	cfg.GroupSameFile = true
	s := mustNew(t, cfg)
	s.Submit(job("a", 7, t0))
	s.Submit(job("b", 7, t0.Add(time.Minute)))
	buf := make([]*Job, 0, 4)
	js := s.Next(0, LaneRealtime, buf...)
	if len(js) != 2 || &js[0] != &buf[:1][0] {
		t.Fatalf("group claim = %v, not in the buffer given", js)
	}
	for _, j := range js {
		s.Done(j)
	}
	s.Submit(job("a", 8, t0))
	if got := s.Next(0, LaneRealtime, js[:0]...); len(got) != 1 || got[0].FileID != 8 || &got[0] != &js[0] {
		t.Fatalf("claim = %v, not in the last group's slice", got)
	}
}

func TestGroupSameFileRespectsCap(t *testing.T) {
	cfg := onePartition(EDF)
	cfg.GroupSameFile = true
	s := mustNew(t, cfg)
	s.Submit(job("a", 7, t0))
	s.Submit(job("a", 7, t0.Add(time.Second))) // same sub, same file (odd but possible)
	js := s.TryNext(0, LaneRealtime)
	if len(js) != 1 {
		t.Fatalf("cap violated in group claim: %v", js)
	}
	for _, j := range js {
		s.Done(j)
	}
}

func TestBackfillConcurrentSeparation(t *testing.T) {
	cfg := Config{
		Partitions: []PartitionConfig{{Name: "p", Workers: 2, BackfillWorkers: 1, Policy: EDF}},
		Backfill:   BackfillConcurrent,
	}
	s := mustNew(t, cfg)
	bf := job("a", 1, t0.Add(-time.Hour)) // old deadline
	bf.Backfill = true
	s.Submit(bf)
	rt := job("b", 2, t0.Add(time.Minute))
	s.Submit(rt)
	// Real-time lane prefers the real-time job despite its later
	// deadline, because backfill sits on its own queue.
	if js := s.TryNext(0, LaneRealtime); js[0].Subscriber != "b" {
		t.Fatalf("realtime lane claimed %v", js)
	}
	if js := s.TryNext(0, LaneBackfill); js[0].Subscriber != "a" {
		t.Fatalf("backfill lane claimed %v", js)
	}
}

func TestBackfillInOrderMerges(t *testing.T) {
	cfg := onePartition(EDF)
	cfg.Backfill = BackfillInOrder
	s := mustNew(t, cfg)
	bf := job("a", 1, t0.Add(-time.Hour))
	bf.Backfill = true
	s.Submit(bf)
	s.Submit(job("b", 2, t0.Add(time.Minute)))
	// Merged queue: the old backfill deadline wins under EDF —
	// exactly the starvation the paper warns about.
	if js := s.TryNext(0, LaneRealtime); js[0].Subscriber != "a" {
		t.Fatalf("in-order mode claimed %v first", js)
	}
}

func TestIdleRealtimeWorkerHelpsBackfill(t *testing.T) {
	cfg := Config{
		Partitions: []PartitionConfig{{Name: "p", Workers: 2, BackfillWorkers: 1, Policy: EDF}},
		Backfill:   BackfillConcurrent,
	}
	s := mustNew(t, cfg)
	bf := job("a", 1, t0)
	bf.Backfill = true
	s.Submit(bf)
	if js := s.TryNext(0, LaneRealtime); js == nil || !js[0].Backfill {
		t.Fatalf("idle realtime worker did not take backfill: %v", js)
	}
}

func TestRequeue(t *testing.T) {
	s := mustNew(t, onePartition(EDF))
	s.Submit(job("a", 1, t0))
	js := s.TryNext(0, LaneRealtime)
	s.Requeue(js[0])
	if got := s.QueueLen(0, LaneRealtime); got != 1 {
		t.Fatalf("queue len after requeue = %d", got)
	}
	// The requeued job is claimable again (slot released).
	if js := s.TryNext(0, LaneRealtime); js == nil {
		t.Fatal("requeued job not claimable")
	}
}

func TestDropSubscriber(t *testing.T) {
	s := mustNew(t, onePartition(EDF))
	for i := uint64(1); i <= 5; i++ {
		s.Submit(job("dead", i, t0.Add(time.Duration(i)*time.Minute)))
	}
	s.Submit(job("alive", 6, t0))
	if n := s.DropSubscriber("dead"); n != 5 {
		t.Fatalf("dropped = %d", n)
	}
	js := s.TryNext(0, LaneRealtime)
	if js[0].Subscriber != "alive" {
		t.Fatalf("claimed %v", js)
	}
	if s.TryNext(0, LaneRealtime) != nil {
		t.Fatal("dead jobs survived drop")
	}
}

func TestNextBlocksUntilSubmit(t *testing.T) {
	s := mustNew(t, onePartition(EDF))
	got := make(chan []*Job, 1)
	go func() { got <- s.Next(0, LaneRealtime) }()
	select {
	case js := <-got:
		t.Fatalf("Next returned early: %v", js)
	case <-time.After(20 * time.Millisecond):
	}
	s.Submit(job("a", 1, t0))
	select {
	case js := <-got:
		if js[0].Subscriber != "a" {
			t.Fatalf("claimed %v", js)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Next did not wake")
	}
}

func TestCloseReleasesWorkers(t *testing.T) {
	s := mustNew(t, onePartition(EDF))
	done := make(chan struct{})
	go func() {
		if js := s.Next(0, LaneRealtime); js != nil {
			t.Errorf("Next after close = %v", js)
		}
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	s.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("worker not released by Close")
	}
}

func TestConcurrentWorkers(t *testing.T) {
	cfg := Config{
		Partitions:               []PartitionConfig{{Name: "p", Workers: 4, Policy: EDF}},
		MaxInFlightPerSubscriber: 2,
	}
	s := mustNew(t, cfg)
	const jobs = 500
	var delivered sync.Map
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				js := s.Next(0, LaneRealtime)
				if js == nil {
					return
				}
				for _, j := range js {
					if _, dup := delivered.LoadOrStore(j.Seq, true); dup {
						t.Errorf("job %d delivered twice", j.Seq)
					}
					s.Done(j)
				}
			}
		}()
	}
	subs := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < jobs; i++ {
		s.Submit(job(subs[i%len(subs)], uint64(i), t0.Add(time.Duration(i)*time.Second)))
	}
	// Wait for drain, then close.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.QueueLen(0, LaneRealtime) == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	s.Close()
	wg.Wait()
	count := 0
	delivered.Range(func(_, _ any) bool { count++; return true })
	if count != jobs {
		t.Fatalf("delivered %d of %d", count, jobs)
	}
}

func TestTardiness(t *testing.T) {
	j := job("a", 1, t0)
	if d := Tardiness(j, t0.Add(-time.Second)); d != 0 {
		t.Errorf("early tardiness = %v", d)
	}
	if d := Tardiness(j, t0.Add(90*time.Second)); d != 90*time.Second {
		t.Errorf("late tardiness = %v", d)
	}
}

// Property: popping an EDF queue yields non-decreasing deadlines.
func TestQuickEDFMonotone(t *testing.T) {
	fn := func(offsets []int16) bool {
		q := newQueue(EDF)
		for i, off := range offsets {
			q.push(&Job{
				Seq:      uint64(i),
				Deadline: t0.Add(time.Duration(off) * time.Second),
			})
		}
		var prev *Job
		for {
			j := q.pop()
			if j == nil {
				break
			}
			if prev != nil && j.Deadline.Before(prev.Deadline) {
				return false
			}
			prev = j
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: popWhere never loses jobs.
func TestQuickPopWherePreserves(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 100; iter++ {
		q := newQueue(EDF)
		n := rng.Intn(50)
		for i := 0; i < n; i++ {
			q.push(&Job{Seq: uint64(i), FileID: uint64(rng.Intn(5)), Deadline: t0.Add(time.Duration(rng.Intn(100)) * time.Second)})
		}
		blocked := uint64(rng.Intn(5))
		popped := 0
		for {
			j := q.popWhere(func(j *Job) bool { return j.FileID != blocked })
			if j == nil {
				break
			}
			popped++
		}
		if popped+q.Len() != n {
			t.Fatalf("lost jobs: popped %d, left %d, want total %d", popped, q.Len(), n)
		}
		for _, j := range q.jobs {
			if j.FileID != blocked {
				t.Fatalf("unblocked job left behind: %v", j)
			}
		}
	}
}

func BenchmarkSubmitClaimEDF(b *testing.B) {
	s, _ := New(onePartition(EDF))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Submit(job("a", uint64(i), t0.Add(time.Duration(i)*time.Second)))
		js := s.TryNext(0, LaneRealtime)
		s.Done(js[0])
	}
}

func TestRequeueAfterHidesJobUntilRelease(t *testing.T) {
	clk := clock.NewSimulated(t0)
	cfg := onePartition(EDF)
	cfg.Clock = clk
	s := mustNew(t, cfg)
	s.Submit(job("a", 1, t0.Add(time.Minute)))
	js := s.TryNext(0, LaneRealtime)
	if len(js) != 1 {
		t.Fatalf("claim = %v", js)
	}
	s.RequeueAfter(js[0], clk.Now().Add(10*time.Second))
	if got := s.TryNext(0, LaneRealtime); got != nil {
		t.Fatalf("delayed job claimable before release: %v", got)
	}
	if n := s.DelayedLen(0); n != 1 {
		t.Fatalf("DelayedLen = %d, want 1", n)
	}
	clk.Advance(10 * time.Second)
	js = s.TryNext(0, LaneRealtime)
	if len(js) != 1 || js[0].FileID != 1 {
		t.Fatalf("job not promoted at release time: %v", js)
	}
	if n := s.DelayedLen(0); n != 0 {
		t.Fatalf("DelayedLen after promotion = %d", n)
	}
}

func TestRequeueAfterOrdersByRelease(t *testing.T) {
	clk := clock.NewSimulated(t0)
	cfg := onePartition(EDF)
	cfg.Clock = clk
	s := mustNew(t, cfg)
	s.Submit(job("a", 1, t0.Add(time.Minute)))
	s.Submit(job("b", 2, t0.Add(time.Minute)))
	ja := s.TryNext(0, LaneRealtime)[0]
	jb := s.TryNext(0, LaneRealtime)[0]
	s.RequeueAfter(ja, clk.Now().Add(20*time.Second))
	s.RequeueAfter(jb, clk.Now().Add(5*time.Second))
	clk.Advance(5 * time.Second)
	js := s.TryNext(0, LaneRealtime)
	if len(js) != 1 || js[0].Subscriber != "b" {
		t.Fatalf("earlier release not promoted first: %v", js)
	}
	if got := s.TryNext(0, LaneRealtime); got != nil {
		t.Fatalf("later release promoted early: %v", got)
	}
	clk.Advance(15 * time.Second)
	js = s.TryNext(0, LaneRealtime)
	if len(js) != 1 || js[0].Subscriber != "a" {
		t.Fatalf("second release not promoted: %v", js)
	}
}

func TestRequeueAfterPastReleaseIsImmediate(t *testing.T) {
	clk := clock.NewSimulated(t0)
	cfg := onePartition(EDF)
	cfg.Clock = clk
	s := mustNew(t, cfg)
	s.Submit(job("a", 1, t0.Add(time.Minute)))
	j := s.TryNext(0, LaneRealtime)[0]
	s.RequeueAfter(j, clk.Now().Add(-time.Second))
	if got := s.TryNext(0, LaneRealtime); len(got) != 1 {
		t.Fatalf("past-release requeue not immediately claimable: %v", got)
	}
}

func TestRequeueAfterWakesBlockedWorker(t *testing.T) {
	s := mustNew(t, onePartition(EDF)) // real clock
	s.Submit(job("a", 1, t0.Add(time.Minute)))
	j := s.TryNext(0, LaneRealtime)[0]
	s.RequeueAfter(j, time.Now().Add(30*time.Millisecond))
	done := make(chan []*Job, 1)
	go func() { done <- s.Next(0, LaneRealtime) }()
	select {
	case js := <-done:
		if len(js) != 1 {
			t.Fatalf("Next = %v", js)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked worker never woke for delayed release")
	}
	s.Close()
}

func TestDropSubscriberPurgesDelayed(t *testing.T) {
	clk := clock.NewSimulated(t0)
	cfg := onePartition(EDF)
	cfg.Clock = clk
	s := mustNew(t, cfg)
	s.Submit(job("a", 1, t0.Add(time.Minute)))
	s.Submit(job("b", 2, t0.Add(time.Minute)))
	ja := s.TryNext(0, LaneRealtime)[0]
	jb := s.TryNext(0, LaneRealtime)[0]
	s.RequeueAfter(ja, clk.Now().Add(10*time.Second))
	s.RequeueAfter(jb, clk.Now().Add(10*time.Second))
	if n := s.DropSubscriber("a"); n != 1 {
		t.Fatalf("DropSubscriber = %d, want 1", n)
	}
	clk.Advance(10 * time.Second)
	js := s.TryNext(0, LaneRealtime)
	if len(js) != 1 || js[0].Subscriber != "b" {
		t.Fatalf("surviving delayed job = %v", js)
	}
}
