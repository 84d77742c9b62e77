package delivery

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bistro/internal/clock"
	"bistro/internal/config"
	"bistro/internal/diskfault"
	"bistro/internal/metrics"
	"bistro/internal/netsim"
	"bistro/internal/receipts"
	"bistro/internal/scheduler"
	"bistro/internal/trigger"
)

// walFaults is an FS whose file Syncs can be held back or failed on
// demand — the receipt store's WAL fsync is the commit point the
// committer waits on.
type walFaults struct {
	diskfault.FS
	mu   sync.Mutex
	gate chan struct{} // non-nil: Sync blocks until it is closed
	fail error         // non-nil: Sync returns it
	// renameFail, when non-nil, fails Rename — the step that installs a
	// receipt-store checkpoint.
	renameFail error
	// held counts Syncs currently blocked on the gate.
	held atomic.Int32
}

func (w *walFaults) OpenFile(name string, flag int, perm os.FileMode) (diskfault.File, error) {
	f, err := w.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return walFaultsFile{f, w}, nil
}

// hold makes every Sync block until the returned release is called
// (calling it again is harmless).
func (w *walFaults) hold() (release func()) {
	gate := make(chan struct{})
	w.mu.Lock()
	w.gate = gate
	w.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			w.mu.Lock()
			w.gate = nil
			w.mu.Unlock()
			close(gate)
		})
	}
}

func (w *walFaults) setFail(err error) {
	w.mu.Lock()
	w.fail = err
	w.mu.Unlock()
}

func (w *walFaults) Rename(oldpath, newpath string) error {
	w.mu.Lock()
	err := w.renameFail
	w.mu.Unlock()
	if err != nil {
		return err
	}
	return w.FS.Rename(oldpath, newpath)
}

type walFaultsFile struct {
	diskfault.File
	w *walFaults
}

func (f walFaultsFile) Sync() error {
	f.w.mu.Lock()
	gate := f.w.gate
	f.w.mu.Unlock()
	if gate != nil {
		f.w.held.Add(1)
		<-gate
		f.w.held.Add(-1)
	}
	f.w.mu.Lock()
	err := f.w.fail
	f.w.mu.Unlock()
	if err != nil {
		return err
	}
	return f.File.Sync()
}

// pool is a single-partition scheduler layout.
func pool(workers int) scheduler.Config {
	return scheduler.Config{
		Partitions: []scheduler.PartitionConfig{{Name: "p", Workers: workers, Policy: scheduler.EDF}},
	}
}

// committerHarness is an engine over a synced store on faults, an
// in-memory transport, and one subscriber "wh" of feed BPS.
func committerHarness(t *testing.T, faults *walFaults, workers int) (*harness, *netsim.Transport, *Metrics) {
	t.Helper()
	ns := netsim.New(clock.NewReal())
	ns.Register("wh", netsim.HostConfig{})
	m := NewMetrics(metrics.NewRegistry())
	h := newHarnessStore(t, receipts.Options{FS: faults}, ns, []*config.Subscriber{sub("wh", "BPS")}, func(o *Options) {
		o.Scheduler = pool(workers)
		o.Metrics = m
	})
	return h, ns, m
}

func (h *harness) stageN(n int) []receipts.FileMeta {
	metas := make([]receipts.FileMeta, n)
	for i := range metas {
		metas[i] = h.stage(fmt.Sprintf("BPS/f%04d.csv", i), []string{"BPS"}, []byte("x"))
	}
	return metas
}

// (a) The committer accounts deliveries in the order the subscriber
// acked them, whichever worker carried each file and however the
// receipts were batched.
func TestDeliveredEventsFollowWireOrder(t *testing.T) {
	const nSubs, nFiles = 3, 60
	ns := netsim.New(clock.NewReal())
	var subs []*config.Subscriber
	for i := 0; i < nSubs; i++ {
		name := fmt.Sprintf("s%d", i)
		ns.Register(name, netsim.HostConfig{})
		subs = append(subs, sub(name, "BPS"))
	}
	var mu sync.Mutex
	events := make(map[string][]uint64)
	m := NewMetrics(metrics.NewRegistry())
	so := receipts.Options{GroupCommit: receipts.GroupCommitConfig{MaxBatch: 64, MaxDelay: 2 * time.Millisecond}}
	h := newHarnessStore(t, so, ns, subs, func(o *Options) {
		o.Scheduler = pool(4)
		o.Metrics = m
		o.OnEvent = func(ev Event) {
			if ev.Kind == EvDelivered {
				mu.Lock()
				events[ev.Subscriber] = append(events[ev.Subscriber], ev.FileID)
				mu.Unlock()
			}
		}
	})
	h.engine.Start()
	defer h.engine.Stop()
	for _, meta := range h.stageN(nFiles) {
		h.engine.EnqueueFile(meta)
	}
	waitFor(t, "every delivery event", func() bool {
		mu.Lock()
		defer mu.Unlock()
		n := 0
		for _, ids := range events {
			n += len(ids)
		}
		return n == nSubs*nFiles
	})
	mu.Lock()
	defer mu.Unlock()
	for _, s := range subs {
		wire := ns.Delivered(s.Name)
		if len(wire) != nFiles || len(events[s.Name]) != nFiles {
			t.Fatalf("%s: %d on the wire, %d events, want %d of each", s.Name, len(wire), len(events[s.Name]), nFiles)
		}
		for i, f := range wire {
			if events[s.Name][i] != f.FileID {
				t.Fatalf("%s: event %d is file %d, wire sent file %d there", s.Name, i, events[s.Name][i], f.FileID)
			}
		}
	}
	if batches := m.ReceiptBatchSize.Count(); batches >= nSubs*nFiles {
		t.Errorf("%d receipts took %d commits: nothing was batched behind the 2ms flush window", nSubs*nFiles, batches)
	}
}

// (c) A queue recomputation (reconnect, re-subscribe) while acked
// files wait for their commit must not send them again: the store still
// calls them pending.
func TestBackfillSkipsFilesAwaitingReceipt(t *testing.T) {
	faults := &walFaults{FS: diskfault.OS()}
	h, ns, m := committerHarness(t, faults, 2)
	h.engine.Start()
	defer h.engine.Stop()
	metas := h.stageN(5)

	release := faults.hold()
	defer release()
	for _, meta := range metas {
		h.engine.EnqueueFile(meta)
	}
	// The slot is freed at wire ack, so all five go out behind the one
	// stalled commit.
	waitFor(t, "five files acked behind a stalled commit", func() bool { return len(ns.Delivered("wh")) == 5 })
	if n := h.store.DeliveredCount("wh"); n != 0 {
		t.Fatalf("%d receipts durable through a held fsync", n)
	}
	if n := h.events.count(EvDelivered); n != 0 {
		t.Fatalf("%d EvDelivered before the receipt was durable", n)
	}
	waitFor(t, "pending gauge", func() bool { return m.ReceiptsPending.Value() == 5 })

	if ids := h.engine.QueueBackfill("wh"); len(ids) != 0 {
		t.Fatalf("backfill queued %v while their receipts were in the committer", ids)
	}
	h.engine.EnqueueFile(metas[0])
	time.Sleep(20 * time.Millisecond)
	if n := len(ns.Delivered("wh")); n != 5 {
		t.Fatalf("%d transfers on the wire, want 5: a file went out twice", n)
	}

	release()
	waitFor(t, "receipts committed", func() bool { return h.events.count(EvDelivered) == 5 })
	if n := m.ReceiptsPending.Value(); n != 0 {
		t.Fatalf("pending gauge = %d after the commit", n)
	}
	if ids := h.engine.QueueBackfill("wh"); len(ids) != 0 {
		t.Fatalf("backfill queued %v after their receipts committed", ids)
	}
	if n := len(ns.Delivered("wh")); n != 5 {
		t.Fatalf("%d transfers on the wire, want 5", n)
	}
}

// (d) Stop with the FIFO full and workers blocked on it must neither
// hang nor drop a receipt: whatever the subscriber acked is committed
// before Stop returns.
func TestStopCommitsEverythingAcked(t *testing.T) {
	faults := &walFaults{FS: diskfault.OS()}
	h, ns, _ := committerHarness(t, faults, 2)
	h.engine.Start()
	metas := h.stageN(receiptQueueDepth + 40)

	release := faults.hold()
	defer release()
	// One receipt is with the stalled commit, the FIFO fills behind it,
	// and a worker ends up holding one more acked file it cannot queue —
	// still in its subscriber's only slot: the wire stops there, short
	// of the backlog.
	h.engine.EnqueueFile(metas[0])
	waitFor(t, "the first commit to stall", func() bool { return faults.held.Load() == 1 })
	for _, meta := range metas[1:] {
		h.engine.EnqueueFile(meta)
	}
	acked := func() int { return len(ns.Delivered("wh")) }
	waitFor(t, "a full FIFO", func() bool { return acked() == receiptQueueDepth+2 })
	time.Sleep(30 * time.Millisecond)
	if n := acked(); n != receiptQueueDepth+2 {
		t.Fatalf("%d transfers with the store stalled, want the FIFO bound to hold the wire at %d", n, receiptQueueDepth+2)
	}

	stopped := make(chan struct{})
	go func() {
		h.engine.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("Stop returned with receipts uncommitted")
	case <-time.After(20 * time.Millisecond):
	}
	release()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not return once the store came back")
	}
	wire := ns.Delivered("wh")
	for _, f := range wire {
		if !h.store.Delivered(f.FileID, "wh") {
			t.Fatalf("file %d was acked on the wire but Stop returned without its receipt", f.FileID)
		}
	}
	if got := h.events.count(EvDelivered); got != len(wire) {
		t.Fatalf("%d EvDelivered for %d acked transfers", got, len(wire))
	}
}

// (e) A failed commit fails every record of the batch the same way a
// single failed RecordDelivery used to: the receipt-write-failed
// counter and event, a failure in the stats, nothing delivered — and
// the files are pending again for the next queue recomputation.
func TestFailedCommitFailsWholeBatch(t *testing.T) {
	faults := &walFaults{FS: diskfault.OS()}
	h, ns, m := committerHarness(t, faults, 2)
	h.engine.Start()
	defer h.engine.Stop()
	metas := h.stageN(6)

	release := faults.hold()
	defer release()
	for _, meta := range metas {
		h.engine.EnqueueFile(meta)
	}
	waitFor(t, "six files acked behind a stalled commit", func() bool { return len(ns.Delivered("wh")) == 6 })
	injected := errors.New("injected fsync failure")
	faults.setFail(injected)
	release()
	waitFor(t, "receipt-write-failed events", func() bool { return h.events.count(EvReceiptWriteFailed) == 6 })
	for _, err := range h.events.errsOf(EvReceiptWriteFailed) {
		if !errors.Is(err, injected) {
			t.Fatalf("event error = %v, want the injected fsync failure", err)
		}
	}
	if n := h.events.count(EvDelivered); n != 0 {
		t.Fatalf("%d EvDelivered from failed commits", n)
	}
	if st := h.engine.Stats()["wh"]; st.Delivered != 0 || st.Failures != 6 {
		t.Fatalf("stats = %+v, want 0 delivered / 6 failures", st)
	}
	if got := m.ReceiptWriteFailures.Value(); got != 6 {
		t.Fatalf("receipt_write_failures = %d, want 6", got)
	}
	if got := m.ReceiptsPending.Value(); got != 0 {
		t.Fatalf("pending gauge = %d after the failed commits", got)
	}
	// The first commit took what was queued when it started; the other
	// records accumulated behind it and failed as one batch.
	if b := m.ReceiptBatchSize; b.Count() > 2 || b.Sum() != 6 {
		t.Fatalf("6 records in %d commits (sum %v), want at most 2 commits", b.Count(), b.Sum())
	}

	// The ledger is behind the subscriber; with the disk back, a queue
	// recomputation re-sends (the safe direction) and records.
	faults.setFail(nil)
	if ids := h.engine.QueueBackfill("wh"); len(ids) != 6 {
		t.Fatalf("backfill after failed commits queued %v, want all 6 files", ids)
	}
	waitFor(t, "re-sent files recorded", func() bool { return h.store.DeliveredCount("wh") == 6 })
}

// A failed automatic checkpoint behind a committed batch leaves the
// batch delivered: the receipts are in the WAL. The store's trouble is
// raised, but not as failed files.
func TestCheckpointFailureKeepsBatchDelivered(t *testing.T) {
	faults := &walFaults{FS: diskfault.OS()}
	ns := netsim.New(clock.NewReal())
	ns.Register("wh", netsim.HostConfig{})
	so := receipts.Options{FS: faults, CheckpointEvery: 1}
	h := newHarnessStore(t, so, ns, []*config.Subscriber{sub("wh", "BPS")}, nil)
	h.engine.Start()
	defer h.engine.Stop()
	metas := h.stageN(3)
	injected := errors.New("injected rename failure")
	faults.mu.Lock()
	faults.renameFail = injected
	faults.mu.Unlock()
	for _, meta := range metas {
		h.engine.EnqueueFile(meta)
	}
	waitFor(t, "delivered events", func() bool { return h.events.count(EvDelivered) == 3 })
	if st := h.engine.Stats()["wh"]; st.Delivered != 3 || st.Failures != 0 {
		t.Fatalf("stats = %+v, want 3 delivered / 0 failures", st)
	}
	if n := h.store.DeliveredCount("wh"); n != 3 {
		t.Fatalf("store has %d receipts, want 3", n)
	}
	errs := h.events.errsOf(EvReceiptWriteFailed)
	if len(errs) == 0 || len(errs) > 3 {
		t.Fatalf("%d store alarms, want one per failed checkpoint (1..3)", len(errs))
	}
	for _, err := range errs {
		if !errors.Is(err, receipts.ErrCheckpoint) || !errors.Is(err, injected) {
			t.Fatalf("alarm error = %v, want ErrCheckpoint wrapping the injected failure", err)
		}
	}
}

// A hung trigger command stalls its own subscriber — the wire stops
// triggerLaneDepth files ahead of the script — and nobody else: the
// committer keeps receipting, so other subscribers' deliveries are
// announced and the hung subscriber's acked files become durable.
func TestHungTriggerStallsOnlyItsSubscriber(t *testing.T) {
	const nFiles = triggerLaneDepth + 10
	ns := netsim.New(clock.NewReal())
	ns.Register("a", netsim.HostConfig{})
	ns.Register("b", netsim.HostConfig{})
	a := sub("a", "BPS")
	a.Trigger = config.TriggerSpec{Mode: config.TriggerPerFile, Exec: "load %f"}
	release := make(chan struct{})
	var mu sync.Mutex
	delivered := make(map[string]int)
	var fired []string
	h := newHarness(t, ns, []*config.Subscriber{a, sub("b", "BPS")}, func(o *Options) {
		// One worker carrying both subscribers' jobs for a file: a's
		// full lane must not hold it.
		o.Scheduler = pool(1)
		o.Scheduler.GroupSameFile = true
		o.TriggerInvoker = trigger.InvokerFunc(func(inv trigger.Invocation) error {
			<-release
			mu.Lock()
			fired = append(fired, inv.Paths[0])
			mu.Unlock()
			return nil
		})
		o.OnEvent = func(ev Event) {
			if ev.Kind == EvDelivered {
				mu.Lock()
				delivered[ev.Subscriber]++
				mu.Unlock()
			}
		}
	})
	count := func(sub string) int {
		mu.Lock()
		defer mu.Unlock()
		return delivered[sub]
	}
	h.engine.Start()
	metas := h.stageN(nFiles)
	for _, meta := range metas {
		h.engine.EnqueueFile(meta)
	}
	waitFor(t, "b's deliveries while a's trigger hangs", func() bool { return count("b") == nFiles })
	waitFor(t, "a's lane to fill", func() bool { return count("a") == triggerLaneDepth })
	time.Sleep(20 * time.Millisecond)
	if n, wire := count("a"), len(ns.Delivered("a")); n != triggerLaneDepth || wire != triggerLaneDepth+1 {
		t.Fatalf("a: %d delivered events, %d files on the wire; want the wire stopped at %d and %d",
			n, wire, triggerLaneDepth, triggerLaneDepth+1)
	}
	if !h.store.Delivered(metas[triggerLaneDepth-1].ID, "a") {
		t.Fatal("a's acked files are not receipted while its trigger hangs")
	}
	// The file acked past the lane's depth waits for a slot, off the
	// worker, with a's in-flight slot still taken; a queue recomputation
	// must already know the subscriber has it.
	if !h.engine.isUnrecorded("a", metas[triggerLaneDepth].ID) {
		t.Fatal("the file waiting for a trigger slot is not marked unrecorded")
	}
	close(release)
	waitFor(t, "a's deliveries after the trigger returns", func() bool { return count("a") == nFiles })
	h.engine.Stop() // runs every trigger still queued
	mu.Lock()
	defer mu.Unlock()
	if len(fired) != nFiles {
		t.Fatalf("%d triggers fired, want %d", len(fired), nFiles)
	}
	for i, p := range fired {
		if want := "in/" + metas[i].StagedPath; p != want {
			t.Fatalf("trigger %d ran for %s, want %s (delivery order)", i, p, want)
		}
	}
}

// Each way a job can fail before the wire moves the subscriber's
// failure counter exactly once (the stat-error and vanished-file
// branches used to skip it).
func TestEveryFailureBranchCountsOnce(t *testing.T) {
	failures := func(h *harness) int64 { return h.engine.Stats()["wh"].Failures }
	newH := func(t *testing.T, trans *netsim.Transport, mutate func(*Options)) *harness {
		trans.Register("wh", netsim.HostConfig{})
		h := newHarness(t, trans, []*config.Subscriber{sub("wh", "BPS")}, mutate)
		h.engine.Start()
		t.Cleanup(h.engine.Stop)
		return h
	}
	expectOne := func(t *testing.T, h *harness) {
		t.Helper()
		waitFor(t, "failure event", func() bool { return h.events.count(EvDeliveryFailed) == 1 })
		waitFor(t, "failure counter", func() bool { return failures(h) == 1 })
		time.Sleep(10 * time.Millisecond)
		if n, evs := failures(h), h.events.count(EvDeliveryFailed); n != 1 || evs != 1 {
			t.Fatalf("failures = %d, events = %d, want 1 and 1", n, evs)
		}
	}

	t.Run("missing receipt", func(t *testing.T) {
		h := newH(t, netsim.New(clock.NewReal()), nil)
		h.engine.EnqueueFile(receipts.FileMeta{ID: 999, StagedPath: "BPS/ghost.csv", Feeds: []string{"BPS"}, Arrived: time.Now()})
		expectOne(t, h)
	})
	t.Run("staged file vanished", func(t *testing.T) {
		h := newH(t, netsim.New(clock.NewReal()), nil)
		meta := h.stage("BPS/gone.csv", []string{"BPS"}, []byte("x"))
		os.Remove(h.staging + "/BPS/gone.csv")
		h.engine.EnqueueFile(meta)
		expectOne(t, h)
	})
	t.Run("stat error on the streaming path", func(t *testing.T) {
		trans := netsim.New(clock.NewReal())
		trans.Register("wh", netsim.HostConfig{})
		h := newHarness(t, trans, []*config.Subscriber{sub("wh", "BPS")}, nil)
		h.engine.streamMin = 1
		h.engine.Start()
		t.Cleanup(h.engine.Stop)
		meta := h.stage("BPS/gone.csv", []string{"BPS"}, []byte("x"))
		os.Remove(h.staging + "/BPS/gone.csv")
		h.engine.EnqueueFile(meta)
		expectOne(t, h)
	})
	t.Run("transform failure", func(t *testing.T) {
		h := newH(t, netsim.New(clock.NewReal()), func(o *Options) {
			o.Transform = func(string) func([]byte) ([]byte, error) {
				return func([]byte) ([]byte, error) { return nil, errors.New("side table unreadable") }
			}
		})
		h.engine.EnqueueFile(h.stage("BPS/f.csv", []string{"BPS"}, []byte("x")))
		expectOne(t, h)
	})
	t.Run("transfer failure", func(t *testing.T) {
		ns := netsim.New(clock.NewReal())
		h := newH(t, ns, func(o *Options) { o.OfflineAfter = 1 })
		ns.SetDown("wh", true)
		h.engine.EnqueueFile(h.stage("BPS/f.csv", []string{"BPS"}, []byte("x")))
		expectOne(t, h)
	})
}

// (f) BenchmarkDeliverSmallFiles pushes 4 KiB files to one subscriber
// over an in-memory transport with the receipt store on a real disk
// behind the benchmark server's flush window: the per-file cost of the
// delivery path with the commit on it.
func BenchmarkDeliverSmallFiles(b *testing.B) {
	ns := netsim.New(clock.NewReal())
	ns.Register("wh", netsim.HostConfig{})
	var delivered atomic.Int64
	so := receipts.Options{GroupCommit: receipts.GroupCommitConfig{MaxBatch: 64, MaxDelay: 2 * time.Millisecond}}
	h := newHarnessStore(b, so, ns, []*config.Subscriber{sub("wh", "BPS")}, func(o *Options) {
		o.OnEvent = func(ev Event) {
			if ev.Kind == EvDelivered {
				delivered.Add(1)
			}
		}
	})
	// One staged payload behind b.N arrival receipts, recorded from
	// many goroutines so that set-up shares flush windows.
	first := h.stage("BPS/small.csv", []string{"BPS"}, make([]byte, 4<<10))
	metas := make([]receipts.FileMeta, b.N)
	metas[0] = first
	var wg sync.WaitGroup
	for w := 0; w < 64; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1 + w; i < b.N; i += 64 {
				meta := first
				id, err := h.store.RecordArrival(meta)
				if err != nil {
					b.Error(err)
					return
				}
				meta.ID = id
				metas[i] = meta
			}
		}(w)
	}
	wg.Wait()
	if b.Failed() {
		return
	}
	h.engine.Start()
	defer h.engine.Stop()

	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for _, meta := range metas {
		h.engine.EnqueueFile(meta)
	}
	for delivered.Load() < int64(b.N) {
		if time.Since(start) > time.Minute {
			b.Fatalf("%d of %d delivered after a minute", delivered.Load(), b.N)
		}
		time.Sleep(100 * time.Microsecond)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "files/s")
}
