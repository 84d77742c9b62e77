package receipts

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

var t0 = time.Date(2011, 6, 12, 10, 0, 0, 0, time.UTC)

func openTest(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func meta(name string, feeds ...string) FileMeta {
	return FileMeta{
		Name:       name,
		StagedPath: "staging/" + name,
		Feeds:      feeds,
		Size:       100,
		Checksum:   0xdead,
		Arrived:    t0,
		DataTime:   t0.Add(-time.Minute),
	}
}

func TestArrivalAssignsMonotoneIDs(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{NoSync: true})
	defer s.Close()
	var prev uint64
	for i := 0; i < 10; i++ {
		id, err := s.RecordArrival(meta(fmt.Sprintf("f%d", i), "bps"))
		if err != nil {
			t.Fatal(err)
		}
		if id <= prev {
			t.Fatalf("id %d not monotone after %d", id, prev)
		}
		prev = id
	}
}

func TestPendingAndDelivery(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{NoSync: true})
	defer s.Close()
	id1, _ := s.RecordArrival(meta("a", "bps"))
	id2, _ := s.RecordArrival(meta("b", "bps", "pps"))
	id3, _ := s.RecordArrival(meta("c", "pps"))

	pend := s.PendingFor("sub1", []string{"bps"})
	if len(pend) != 2 || pend[0].ID != id1 || pend[1].ID != id2 {
		t.Fatalf("pending = %+v", pend)
	}
	if err := s.RecordDelivery(id1, "sub1", t0); err != nil {
		t.Fatal(err)
	}
	pend = s.PendingFor("sub1", []string{"bps"})
	if len(pend) != 1 || pend[0].ID != id2 {
		t.Fatalf("pending after delivery = %+v", pend)
	}
	// Multi-feed interest must not duplicate id2.
	pend = s.PendingFor("sub1", []string{"bps", "pps"})
	if len(pend) != 2 || pend[0].ID != id2 || pend[1].ID != id3 {
		t.Fatalf("multi-feed pending = %+v", pend)
	}
	if !s.Delivered(id1, "sub1") || s.Delivered(id2, "sub1") {
		t.Fatal("Delivered bookkeeping wrong")
	}
}

func TestNewSubscriberSeesFullHistory(t *testing.T) {
	// §4.2: a new subscriber gets the full available history.
	s := openTest(t, t.TempDir(), Options{NoSync: true})
	defer s.Close()
	for i := 0; i < 5; i++ {
		s.RecordArrival(meta(fmt.Sprintf("f%d", i), "bps"))
	}
	if got := len(s.PendingFor("latecomer", []string{"bps"})); got != 5 {
		t.Fatalf("latecomer pending = %d, want 5", got)
	}
}

func TestRecoveryAfterClose(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	id1, _ := s.RecordArrival(meta("a", "bps"))
	s.RecordArrival(meta("b", "bps"))
	s.RecordDelivery(id1, "sub1", t0)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, Options{})
	defer s2.Close()
	if !s2.Delivered(id1, "sub1") {
		t.Fatal("delivery receipt lost across restart")
	}
	pend := s2.PendingFor("sub1", []string{"bps"})
	if len(pend) != 1 || pend[0].Name != "b" {
		t.Fatalf("recovered pending = %+v", pend)
	}
	// IDs must continue monotonically.
	id3, _ := s2.RecordArrival(meta("c", "bps"))
	if id3 <= id1+1 {
		t.Fatalf("id not continued: %d", id3)
	}
}

func TestRecoveryWithoutCleanClose(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	id1, _ := s.RecordArrival(meta("a", "bps"))
	s.RecordDelivery(id1, "sub1", t0)
	// No Close: simulate a crash. The WAL was synced per commit.
	s2 := openTest(t, dir, Options{})
	defer s2.Close()
	if !s2.Delivered(id1, "sub1") {
		t.Fatal("synced commit lost after crash")
	}
}

func TestTornWALTailIsDiscarded(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	id1, _ := s.RecordArrival(meta("a", "bps"))
	s.RecordArrival(meta("b", "bps"))
	s.Close()

	// Corrupt the last few bytes of the WAL (torn write).
	path := filepath.Join(dir, walName)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-3); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, Options{})
	defer s2.Close()
	if _, ok := s2.File(id1); !ok {
		t.Fatal("first record should survive")
	}
	stats := s2.Stats()
	if stats.Files != 1 {
		t.Fatalf("files = %d, want 1 (torn second record dropped)", stats.Files)
	}
	// The store must be appendable after truncation.
	if _, err := s2.RecordArrival(meta("c", "bps")); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptWALEntryStopsReplay(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	s.RecordArrival(meta("a", "bps"))
	s.RecordArrival(meta("b", "bps"))
	s.Close()

	// Flip a byte in the middle of the file (second record's payload).
	path := filepath.Join(dir, walName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, Options{})
	defer s2.Close()
	if got := s2.Stats().Files; got != 1 {
		t.Fatalf("files = %d, want 1 after corrupt tail", got)
	}
}

func TestCheckpointAndRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	id1, _ := s.RecordArrival(meta("a", "bps"))
	s.RecordDelivery(id1, "sub1", t0)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if s.Stats().WALBytes != 0 {
		t.Fatal("WAL not reset by checkpoint")
	}
	// Post-checkpoint activity lands in the fresh WAL.
	id2, _ := s.RecordArrival(meta("b", "bps"))
	s.Close()

	s2 := openTest(t, dir, Options{})
	defer s2.Close()
	if !s2.Delivered(id1, "sub1") {
		t.Fatal("checkpointed delivery lost")
	}
	if _, ok := s2.File(id2); !ok {
		t.Fatal("post-checkpoint arrival lost")
	}
	if got := s2.Stats().Files; got != 2 {
		t.Fatalf("files = %d, want 2", got)
	}
}

func TestAutomaticCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{NoSync: true, CheckpointEvery: 10})
	for i := 0; i < 25; i++ {
		s.RecordArrival(meta(fmt.Sprintf("f%d", i), "bps"))
	}
	if _, err := os.Stat(filepath.Join(dir, checkpointName)); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}
	s.Close()
	s2 := openTest(t, dir, Options{})
	defer s2.Close()
	if got := s2.Stats().Files; got != 25 {
		t.Fatalf("files = %d, want 25", got)
	}
}

func TestExpiry(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{NoSync: true})
	defer s.Close()
	old := meta("old", "bps")
	old.DataTime = t0.Add(-48 * time.Hour)
	idOld, _ := s.RecordArrival(old)
	s.RecordArrival(meta("new", "bps"))

	victims, err := s.ExpireBefore(t0.Add(-24 * time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(victims) != 1 || victims[0].ID != idOld {
		t.Fatalf("victims = %+v", victims)
	}
	// Expired files leave delivery queues and feed listings.
	if got := len(s.PendingFor("sub", []string{"bps"})); got != 1 {
		t.Fatalf("pending after expiry = %d, want 1", got)
	}
	if got := len(s.FilesInFeed("bps")); got != 1 {
		t.Fatalf("FilesInFeed after expiry = %d, want 1", got)
	}
	// Second expiry pass finds nothing.
	victims, _ = s.ExpireBefore(t0.Add(-24 * time.Hour))
	if len(victims) != 0 {
		t.Fatalf("second expiry found %d", len(victims))
	}
}

func TestRecordDeliveryBatchTransaction(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	a, _ := s.RecordArrival(meta("a", "bps"))
	b, _ := s.RecordArrival(meta("b", "bps"))
	commits := s.Stats().Commits
	recs := []DeliveryRecord{{ID: a, Sub: "s1", At: t0}, {ID: a, Sub: "s2", At: t0}, {ID: b, Sub: "s1", At: t0}}
	if err := s.RecordDeliveryBatch(recs); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Commits - commits; got != 1 {
		t.Fatalf("batch took %d transactions, want 1", got)
	}
	s.Close()
	s2 := openTest(t, dir, Options{})
	defer s2.Close()
	for _, r := range recs {
		if !s2.Delivered(r.ID, r.Sub) {
			t.Fatalf("batched delivery of %d to %s lost", r.ID, r.Sub)
		}
	}
	if s2.Delivered(b, "s2") {
		t.Fatal("delivery of b to s2 was never recorded")
	}
}

func TestConcurrentCommits(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{}) // group commit on, real fsync
	defer s.Close()
	const workers = 8
	const perWorker = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := s.RecordArrival(meta(fmt.Sprintf("w%d-f%d", w, i), "bps")); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := s.Stats().Files; got != workers*perWorker {
		t.Fatalf("files = %d, want %d", got, workers*perWorker)
	}
	// All IDs distinct and queue complete.
	if got := len(s.PendingFor("sub", []string{"bps"})); got != workers*perWorker {
		t.Fatalf("pending = %d", got)
	}
}

func TestConcurrentCommitsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.RecordArrival(meta(fmt.Sprintf("f%d", i), "bps"))
		}(i)
	}
	wg.Wait()
	s.Close()
	s2 := openTest(t, dir, Options{})
	defer s2.Close()
	if got := s2.Stats().Files; got != n {
		t.Fatalf("recovered files = %d, want %d", got, n)
	}
}

func TestCheckpointDuringConcurrentCommits(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{NoSync: true})
	defer s.Close()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				s.RecordArrival(meta(fmt.Sprintf("c%d", i), "bps"))
			}
		}
	}()
	for i := 0; i < 10; i++ {
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// Model-based property test: random op sequences applied both to the
// store and to a naive in-memory model, with a restart in the middle,
// must agree exactly.
func TestModelEquivalenceWithRestart(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	dir := t.TempDir()
	s := openTest(t, dir, Options{NoSync: true})

	type modelState struct {
		feeds     map[string][]uint64
		delivered map[string]map[uint64]bool
		expired   map[uint64]bool
	}
	m := modelState{
		feeds:     map[string][]uint64{},
		delivered: map[string]map[uint64]bool{},
		expired:   map[uint64]bool{},
	}
	feeds := []string{"bps", "pps", "cpu"}
	subs := []string{"s1", "s2"}
	var ids []uint64

	applyRandom := func(n int) {
		for i := 0; i < n; i++ {
			switch rng.Intn(4) {
			case 0, 1: // arrival
				feed := feeds[rng.Intn(len(feeds))]
				fm := meta(fmt.Sprintf("f%d", rng.Int()), feed)
				id, err := s.RecordArrival(fm)
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
				m.feeds[feed] = append(m.feeds[feed], id)
			case 2: // delivery
				if len(ids) == 0 {
					continue
				}
				id := ids[rng.Intn(len(ids))]
				sub := subs[rng.Intn(len(subs))]
				if err := s.RecordDelivery(id, sub, t0); err != nil {
					t.Fatal(err)
				}
				if m.delivered[sub] == nil {
					m.delivered[sub] = map[uint64]bool{}
				}
				m.delivered[sub][id] = true
			case 3: // expire
				if len(ids) == 0 {
					continue
				}
				id := ids[rng.Intn(len(ids))]
				if !m.expired[id] {
					if err := s.RecordExpire(id); err != nil {
						t.Fatal(err)
					}
					m.expired[id] = true
				}
			}
		}
	}

	check := func() {
		for _, sub := range subs {
			for _, feed := range feeds {
				got := s.PendingFor(sub, []string{feed})
				var want []uint64
				for _, id := range m.feeds[feed] {
					if !m.expired[id] && !m.delivered[sub][id] {
						want = append(want, id)
					}
				}
				if len(got) != len(want) {
					t.Fatalf("pending(%s,%s): got %d, want %d", sub, feed, len(got), len(want))
				}
				for i := range want {
					if got[i].ID != want[i] {
						t.Fatalf("pending(%s,%s)[%d] = %d, want %d", sub, feed, i, got[i].ID, want[i])
					}
				}
			}
		}
	}

	applyRandom(300)
	check()
	// Restart (with a checkpoint halfway for good measure).
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	applyRandom(100)
	s.Close()
	s = openTest(t, dir, Options{NoSync: true})
	defer s.Close()
	check()
	applyRandom(100)
	check()
}

func BenchmarkRecordArrivalNoSync(b *testing.B) {
	s, err := Open(b.TempDir(), Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	fm := meta("bench", "bps")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.RecordArrival(fm); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPendingForLargeHistory(b *testing.B) {
	s, err := Open(b.TempDir(), Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	const n = 50000
	for i := 0; i < n; i++ {
		id, _ := s.RecordArrival(meta(fmt.Sprintf("f%d", i), "bps"))
		if i < n-10 {
			s.RecordDelivery(id, "sub", t0)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := s.PendingFor("sub", []string{"bps"}); len(got) != 10 {
			b.Fatalf("pending = %d", len(got))
		}
	}
}

func TestAutomaticCheckpointBySize(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{NoSync: true, CheckpointBytes: 2048})
	for i := 0; i < 200; i++ {
		s.RecordArrival(meta(fmt.Sprintf("f%04d", i), "bps"))
	}
	// The WAL never grows far past the bound.
	if got := s.Stats().WALBytes; got > 4096 {
		t.Fatalf("wal bytes = %d, size-triggered checkpoint missing", got)
	}
	if _, err := os.Stat(filepath.Join(dir, checkpointName)); err != nil {
		t.Fatalf("no checkpoint: %v", err)
	}
	s.Close()
	s2 := openTest(t, dir, Options{})
	defer s2.Close()
	if got := s2.Stats().Files; got != 200 {
		t.Fatalf("recovered files = %d", got)
	}
}

func TestPendingForAcrossCheckpointAndReopen(t *testing.T) {
	// Queue recomputation must be identical before and after WAL
	// compaction: checkpoint, reopen, and compare PendingFor snapshots.
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	var ids []uint64
	for i := 0; i < 8; i++ {
		feeds := []string{"bps"}
		if i%2 == 0 {
			feeds = append(feeds, "pps")
		}
		id, err := s.RecordArrival(meta(fmt.Sprintf("f%d", i), feeds...))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	s.RecordDelivery(ids[0], "sub1", t0)
	s.RecordDelivery(ids[3], "sub1", t0)
	s.RecordExpire(ids[1])

	snapshot := func(st *Store) map[string][]uint64 {
		out := make(map[string][]uint64)
		for _, q := range []struct {
			sub   string
			feeds []string
		}{
			{"sub1", []string{"bps"}},
			{"sub1", []string{"bps", "pps"}},
			{"latecomer", []string{"pps"}},
		} {
			var got []uint64
			for _, f := range st.PendingFor(q.sub, q.feeds) {
				got = append(got, f.ID)
			}
			out[q.sub+"/"+fmt.Sprint(q.feeds)] = got
		}
		return out
	}
	before := snapshot(s)

	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	afterCkpt := snapshot(s)
	if fmt.Sprint(before) != fmt.Sprint(afterCkpt) {
		t.Fatalf("pending diverged across checkpoint:\n before %v\n after  %v", before, afterCkpt)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, Options{})
	defer s2.Close()
	afterReopen := snapshot(s2)
	if fmt.Sprint(before) != fmt.Sprint(afterReopen) {
		t.Fatalf("pending diverged across reopen:\n before %v\n after  %v", before, afterReopen)
	}
}

func TestQuarantineExcludedAndDurable(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	id1, _ := s.RecordArrival(meta("a", "bps"))
	id2, _ := s.RecordArrival(meta("b", "bps"))
	if err := s.RecordQuarantine(id1); err != nil {
		t.Fatal(err)
	}
	if !s.Quarantined(id1) || s.Quarantined(id2) {
		t.Fatal("Quarantined bookkeeping wrong")
	}
	pend := s.PendingFor("sub1", []string{"bps"})
	if len(pend) != 1 || pend[0].ID != id2 {
		t.Fatalf("pending should exclude quarantined: %+v", pend)
	}
	if got := s.Stats().Quarantined; got != 1 {
		t.Fatalf("Stats.Quarantined = %d, want 1", got)
	}
	// Survives a checkpoint and a reopen.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := openTest(t, dir, Options{})
	defer s2.Close()
	if !s2.Quarantined(id1) {
		t.Fatal("quarantine lost across checkpoint+reopen")
	}
	if got := len(s2.PendingFor("sub1", []string{"bps"})); got != 1 {
		t.Fatalf("recovered pending = %d, want 1", got)
	}
}
