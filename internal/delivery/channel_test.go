package delivery

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"bistro/internal/clock"
	"bistro/internal/config"
	"bistro/internal/diskfault"
	"bistro/internal/metrics"
	"bistro/internal/receipts"
	"bistro/internal/scheduler"
	"bistro/internal/transport"
	"bistro/internal/trigger"
)

// countTrans records every successful delivery per (subscriber, file)
// so tests can assert exactly-once, and fails transfers to subscribers
// marked down with a plain (transient) error.
type countTrans struct {
	mu    sync.Mutex
	down  map[string]bool
	got   map[string]map[uint64]int
	bytes map[string]int64
}

func newCountTrans() *countTrans {
	return &countTrans{
		down:  make(map[string]bool),
		got:   make(map[string]map[uint64]int),
		bytes: make(map[string]int64),
	}
}

func (c *countTrans) setDown(sub string, down bool) {
	c.mu.Lock()
	c.down[sub] = down
	c.mu.Unlock()
}

func (c *countTrans) count(sub string, id uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.got[sub][id]
}

func (c *countTrans) Deliver(sub string, f transport.File) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down[sub] {
		return fmt.Errorf("countTrans: %s is down", sub)
	}
	if c.got[sub] == nil {
		c.got[sub] = make(map[uint64]int)
	}
	c.got[sub][f.FileID]++
	c.bytes[sub] += int64(len(f.Data))
	return nil
}

func (c *countTrans) Notify(sub string, f transport.File) error { return c.Deliver(sub, f) }

func (c *countTrans) Trigger(sub, cmd string, paths []string) error { return nil }

func (c *countTrans) Ping(sub string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down[sub] {
		return fmt.Errorf("countTrans: %s is down", sub)
	}
	return nil
}

func chanOpts(names ...string) func(*Options) {
	return func(o *Options) {
		o.Channels = []ChannelSpec{{Name: "c1", Feed: "BPS", Members: names}}
	}
}

func (h *harness) memberAttached(channel, sub string) func() bool {
	return func() bool {
		st, ok := h.store.GroupMemberState(channel, sub)
		return ok && st.Attached
	}
}

// One staged read fans out to every attached member; receipts are one
// group record, not N per-subscriber records.
func TestChannelFanOutSharedReadAndReceipts(t *testing.T) {
	ct := newCountTrans()
	reg := metrics.NewRegistry()
	subs := []*config.Subscriber{sub("m1", "BPS"), sub("m2", "BPS"), sub("m3", "BPS")}
	h := newHarness(t, ct, subs, func(o *Options) {
		chanOpts("m1", "m2", "m3")(o)
		o.Metrics = NewMetrics(reg)
	})
	h.engine.Start()
	defer h.engine.Stop()
	for _, m := range []string{"m1", "m2", "m3"} {
		waitFor(t, m+" attached", h.memberAttached("c1", m))
	}

	content := []byte(strings.Repeat("x", 1000))
	meta := h.stage("BPS/f1.csv", []string{"BPS"}, content)
	h.engine.EnqueueFile(meta)
	for _, m := range []string{"m1", "m2", "m3"} {
		waitFor(t, "delivery to "+m, func() bool { return h.store.Delivered(meta.ID, m) })
	}

	// Shared receipt: the group log covers the members; no per-member
	// delivery receipts were written.
	for _, m := range []string{"m1", "m2", "m3"} {
		if n := h.store.DeliveredCount(m); n != 0 {
			t.Fatalf("%s has %d individual receipts, want 0 (group covers it)", m, n)
		}
		if ct.count(m, meta.ID) != 1 {
			t.Fatalf("%s transfer count = %d, want 1", m, ct.count(m, meta.ID))
		}
	}
	if f := h.store.GroupFrontier("c1"); f != 1 {
		t.Fatalf("group frontier = %d, want 1", f)
	}

	// Shared read: staging was read once (1000 bytes) while 3000 bytes
	// went out on the wire.
	h.engine.Stop()
	read := h.engine.opts.Metrics.StagingReadBytes.Value()
	if read != int64(len(content)) {
		t.Fatalf("staging bytes read = %d, want %d (one read for three members)", read, len(content))
	}
	stats := h.engine.ChannelStats()
	if len(stats) != 1 || stats[0].Files != 1 || stats[0].Fanout != 3 {
		t.Fatalf("channel stats = %+v, want 1 file fanned out to 3", stats)
	}
}

// Channel members get no individual jobs: the per-subscriber path must
// skip feeds a member's channel covers, in both EnqueueFile and
// QueueBackfill.
func TestChannelMembersGetNoIndividualJobs(t *testing.T) {
	ct := newCountTrans()
	subs := []*config.Subscriber{sub("m1", "BPS", "PPS"), sub("solo", "BPS")}
	h := newHarness(t, ct, subs, chanOpts("m1"))
	h.engine.Start()
	defer h.engine.Stop()
	waitFor(t, "m1 attached", h.memberAttached("c1", "m1"))

	bps := h.stage("BPS/f1.csv", []string{"BPS"}, []byte("b"))
	pps := h.stage("PPS/f1.csv", []string{"PPS"}, []byte("p"))
	h.engine.EnqueueFile(bps)
	h.engine.EnqueueFile(pps)
	waitFor(t, "deliveries", func() bool {
		return h.store.Delivered(bps.ID, "m1") && h.store.Delivered(bps.ID, "solo") &&
			h.store.Delivered(pps.ID, "m1")
	})
	// m1's BPS file came through the channel (group receipt); its PPS
	// file, uncovered, came as an individual job.
	if n := h.store.DeliveredCount("m1"); n != 1 {
		t.Fatalf("m1 individual receipts = %d, want 1 (PPS only)", n)
	}
	if n := h.store.DeliveredCount("solo"); n != 1 {
		t.Fatalf("solo individual receipts = %d, want 1", n)
	}
	if ct.count("m1", bps.ID) != 1 {
		t.Fatalf("m1 got BPS file %d times, want 1", ct.count("m1", bps.ID))
	}
}

// A member that fails mid-fan-out is detached (cursor frozen below the
// missed file), keeps missing files while down, then catches up through
// the log and re-attaches — every file delivered exactly once.
func TestChannelChurnExactlyOnce(t *testing.T) {
	ct := newCountTrans()
	subs := []*config.Subscriber{sub("m1", "BPS"), sub("m2", "BPS")}
	h := newHarness(t, ct, subs, chanOpts("m1", "m2"))
	h.engine.Start()
	defer h.engine.Stop()
	waitFor(t, "m1 attached", h.memberAttached("c1", "m1"))
	waitFor(t, "m2 attached", h.memberAttached("c1", "m2"))

	f1 := h.stage("BPS/f1.csv", []string{"BPS"}, []byte("one"))
	h.engine.EnqueueFile(f1)
	waitFor(t, "f1 to both", func() bool {
		return h.store.Delivered(f1.ID, "m1") && h.store.Delivered(f1.ID, "m2")
	})

	ct.setDown("m2", true)
	f2 := h.stage("BPS/f2.csv", []string{"BPS"}, []byte("two"))
	h.engine.EnqueueFile(f2)
	waitFor(t, "f2 to m1", func() bool { return h.store.Delivered(f2.ID, "m1") })
	waitFor(t, "m2 detached", func() bool {
		st, ok := h.store.GroupMemberState("c1", "m2")
		return ok && !st.Attached
	})
	if h.store.Delivered(f2.ID, "m2") {
		t.Fatal("detached member credited with a file it never received")
	}

	f3 := h.stage("BPS/f3.csv", []string{"BPS"}, []byte("three"))
	h.engine.EnqueueFile(f3)
	waitFor(t, "f3 to m1", func() bool { return h.store.Delivered(f3.ID, "m1") })

	ct.setDown("m2", false)
	waitFor(t, "m2 caught up", func() bool {
		return h.store.Delivered(f2.ID, "m2") && h.store.Delivered(f3.ID, "m2")
	})
	waitFor(t, "m2 re-attached", h.memberAttached("c1", "m2"))

	f4 := h.stage("BPS/f4.csv", []string{"BPS"}, []byte("four"))
	h.engine.EnqueueFile(f4)
	waitFor(t, "f4 to both", func() bool {
		return h.store.Delivered(f4.ID, "m1") && h.store.Delivered(f4.ID, "m2")
	})

	for _, m := range []string{"m1", "m2"} {
		for _, f := range []receipts.FileMeta{f1, f2, f3, f4} {
			if n := ct.count(m, f.ID); n != 1 {
				t.Errorf("%s received %s %d times, want exactly 1", m, f.Name, n)
			}
		}
	}
	if h.events.count(EvChannelDetached) == 0 {
		t.Error("no detach event for the mid-fan-out failure")
	}
}

// channelEngine builds an engine over an existing store + staging dir
// (for restart tests, where the harness's own store lifecycle is too
// tightly coupled).
func channelEngine(t *testing.T, store *receipts.Store, staging string, trans transport.Transport, subs []*config.Subscriber, evs *eventLog) *Engine {
	t.Helper()
	e, err := New(Options{
		Clock:        clock.NewReal(),
		Store:        store,
		Transport:    trans,
		Subscribers:  subs,
		StagingRoot:  staging,
		OfflineAfter: 2,
		OnEvent:      evs.add,
		Channels:     []ChannelSpec{{Name: "c1", Feed: "BPS", Members: []string{"m1", "m2"}}},
		TriggerInvoker: trigger.InvokerFunc(func(trigger.Invocation) error {
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// A server restart (store closed and replayed from WAL) resumes a
// lagging member from its durable cursor: the missed file is delivered
// by catch-up, exactly once, and the member re-attaches.
func TestChannelRestartResumesFromDurableCursor(t *testing.T) {
	dir := t.TempDir()
	staging := filepath.Join(dir, "staging")
	os.MkdirAll(staging, 0o755)
	ct := newCountTrans()
	subs := []*config.Subscriber{sub("m1", "BPS"), sub("m2", "BPS")}
	evs := &eventLog{}

	stage := func(store *receipts.Store, name, content string) receipts.FileMeta {
		p := filepath.Join(staging, name)
		os.MkdirAll(filepath.Dir(p), 0o755)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		meta := receipts.FileMeta{Name: name, StagedPath: name, Feeds: []string{"BPS"},
			Size: int64(len(content)), Arrived: time.Now()}
		id, err := store.RecordArrival(meta)
		if err != nil {
			t.Fatal(err)
		}
		meta.ID = id
		return meta
	}

	store1, err := receipts.Open(filepath.Join(dir, "db"), receipts.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e1 := channelEngine(t, store1, staging, ct, subs, evs)
	e1.Start()
	h1 := &harness{t: t, engine: e1, store: store1, staging: staging, events: evs}
	waitFor(t, "m1 attached", h1.memberAttached("c1", "m1"))
	waitFor(t, "m2 attached", h1.memberAttached("c1", "m2"))

	f1 := stage(store1, "BPS/f1.csv", "one")
	e1.EnqueueFile(f1)
	waitFor(t, "f1 to both", func() bool {
		return store1.Delivered(f1.ID, "m1") && store1.Delivered(f1.ID, "m2")
	})

	ct.setDown("m2", true)
	f2 := stage(store1, "BPS/f2.csv", "two")
	e1.EnqueueFile(f2)
	waitFor(t, "f2 to m1 with m2 detached", func() bool {
		st, ok := store1.GroupMemberState("c1", "m2")
		return store1.Delivered(f2.ID, "m1") && ok && !st.Attached
	})
	e1.Stop()
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: WAL replay rebuilds the group; m2 is back up.
	ct.setDown("m2", false)
	store2, err := receipts.Open(filepath.Join(dir, "db"), receipts.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	e2 := channelEngine(t, store2, staging, ct, subs, evs)
	e2.Start()
	defer e2.Stop()
	h2 := &harness{t: t, engine: e2, store: store2, staging: staging, events: evs}
	waitFor(t, "m2 caught up after restart", func() bool { return store2.Delivered(f2.ID, "m2") })
	waitFor(t, "m2 re-attached after restart", h2.memberAttached("c1", "m2"))

	f3 := stage(store2, "BPS/f3.csv", "three")
	e2.EnqueueFile(f3)
	waitFor(t, "f3 to both", func() bool {
		return store2.Delivered(f3.ID, "m1") && store2.Delivered(f3.ID, "m2")
	})

	for _, m := range []string{"m1", "m2"} {
		for _, f := range []receipts.FileMeta{f1, f2, f3} {
			if n := ct.count(m, f.ID); n != 1 {
				t.Errorf("%s received %s %d times across restart, want exactly 1", m, f.Name, n)
			}
		}
	}
}

// A member attached at runtime catches up through the full group log
// (history entitlement from cursor 0) before riding the live fan-out.
func TestAttachChannelMemberCatchesUpHistory(t *testing.T) {
	ct := newCountTrans()
	h := newHarness(t, ct, []*config.Subscriber{sub("m1", "BPS")}, chanOpts("m1"))
	h.engine.Start()
	defer h.engine.Stop()
	waitFor(t, "m1 attached", h.memberAttached("c1", "m1"))

	f1 := h.stage("BPS/f1.csv", []string{"BPS"}, []byte("one"))
	h.engine.EnqueueFile(f1)
	f2 := h.stage("BPS/f2.csv", []string{"BPS"}, []byte("two"))
	h.engine.EnqueueFile(f2)
	waitFor(t, "history to m1", func() bool {
		return h.store.Delivered(f1.ID, "m1") && h.store.Delivered(f2.ID, "m1")
	})

	if err := h.engine.AttachChannelMember("c1", "late"); err == nil {
		t.Fatal("attach of unregistered subscriber must fail")
	}
	if err := h.engine.AddSubscriberDeferred(sub("late", "BPS")); err != nil {
		t.Fatal(err)
	}
	if err := h.engine.AttachChannelMember("c1", "late"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "late caught up", func() bool {
		return h.store.Delivered(f1.ID, "late") && h.store.Delivered(f2.ID, "late")
	})
	waitFor(t, "late attached", h.memberAttached("c1", "late"))

	f3 := h.stage("BPS/f3.csv", []string{"BPS"}, []byte("three"))
	h.engine.EnqueueFile(f3)
	waitFor(t, "f3 to late", func() bool { return h.store.Delivered(f3.ID, "late") })
	for _, f := range []receipts.FileMeta{f1, f2, f3} {
		if n := ct.count("late", f.ID); n != 1 {
			t.Errorf("late received %s %d times, want 1", f.Name, n)
		}
	}
}

// Explicit detach freezes the member; files fanned out meanwhile are
// not credited to it, and a later attach resumes from the cursor.
func TestDetachChannelMemberFreezesCursor(t *testing.T) {
	ct := newCountTrans()
	subs := []*config.Subscriber{sub("m1", "BPS"), sub("m2", "BPS")}
	h := newHarness(t, ct, subs, chanOpts("m1", "m2"))
	h.engine.Start()
	defer h.engine.Stop()
	waitFor(t, "m2 attached", h.memberAttached("c1", "m2"))

	if err := h.engine.DetachChannelMember("c1", "m2"); err != nil {
		t.Fatal(err)
	}
	f1 := h.stage("BPS/f1.csv", []string{"BPS"}, []byte("one"))
	h.engine.EnqueueFile(f1)
	waitFor(t, "f1 to m1", func() bool { return h.store.Delivered(f1.ID, "m1") })
	if h.store.Delivered(f1.ID, "m2") {
		t.Fatal("detached member credited with a fan-out it sat out")
	}

	if err := h.engine.AttachChannelMember("c1", "m2"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "m2 caught up", func() bool { return h.store.Delivered(f1.ID, "m2") })
	if n := ct.count("m2", f1.ID); n != 1 {
		t.Fatalf("m2 received f1 %d times, want 1", n)
	}
}

// Regression (delivery accounting): execute must route the
// stream-vs-memory decision on the receipt's size, not the job's — a
// stale or zero job size must not pull a large file through memory.
func TestStreamRoutesOnReceiptSize(t *testing.T) {
	var mu sync.Mutex
	var files []transport.File
	capture := transportFunc(func(sub string, f transport.File) error {
		mu.Lock()
		files = append(files, f)
		mu.Unlock()
		return nil
	})
	h := newHarness(t, capture, []*config.Subscriber{sub("wh", "BPS")}, nil)
	h.engine.streamMin = 8
	h.engine.Start()
	defer h.engine.Stop()

	meta := h.stage("BPS/big.csv", []string{"BPS"}, []byte("0123456789abcdef"))
	// Submit directly with a stale Size — the bug routed on this field.
	h.engine.Scheduler().Submit(&scheduler.Job{
		FileID:     meta.ID,
		Feed:       "BPS",
		Subscriber: "wh",
		Path:       meta.StagedPath,
		Size:       0,
		Release:    time.Now(),
		Deadline:   time.Now().Add(time.Minute),
	})
	waitFor(t, "delivery", func() bool { return h.store.Delivered(meta.ID, "wh") })
	mu.Lock()
	defer mu.Unlock()
	if len(files) != 1 {
		t.Fatalf("transfers = %d, want 1", len(files))
	}
	if files[0].Data != nil || files[0].Path == "" {
		t.Fatalf("file over threshold delivered in-memory (Data=%d bytes, Path=%q); want streamed",
			len(files[0].Data), files[0].Path)
	}
}

// transportFunc adapts a delivery function to transport.Transport.
type transportFunc func(sub string, f transport.File) error

func (fn transportFunc) Deliver(sub string, f transport.File) error { return fn(sub, f) }
func (fn transportFunc) Notify(sub string, f transport.File) error  { return fn(sub, f) }
func (fn transportFunc) Trigger(sub, cmd string, ps []string) error { return nil }
func (fn transportFunc) Ping(sub string) error                      { return nil }

// Regression (delivery accounting): a failed receipt write after a
// successful transfer must be a single outcome — the distinct
// receipt-write-failed counter/event, not a "delivered" success.
func TestReceiptWriteFailureSingleOutcome(t *testing.T) {
	ct := newCountTrans()
	reg := metrics.NewRegistry()
	h := newHarness(t, ct, []*config.Subscriber{sub("wh", "BPS")}, func(o *Options) {
		o.Metrics = NewMetrics(reg)
	})
	h.engine.Start()
	defer h.engine.Stop()

	meta := h.stage("BPS/f1.csv", []string{"BPS"}, []byte("data"))
	// Close the store underneath the engine: the transfer will succeed
	// but RecordDelivery will fail on the closed WAL.
	if err := h.store.Close(); err != nil {
		t.Fatal(err)
	}
	h.engine.EnqueueFile(meta)
	waitFor(t, "receipt-write failure", func() bool {
		return h.events.count(EvReceiptWriteFailed) == 1
	})
	if n := h.events.count(EvDelivered); n != 0 {
		t.Fatalf("EvDelivered = %d after receipt-write failure, want 0", n)
	}
	if ct.count("wh", meta.ID) != 1 {
		t.Fatalf("transfer count = %d, want 1 (the transfer itself succeeded)", ct.count("wh", meta.ID))
	}
	st := h.engine.Stats()["wh"]
	if st.Delivered != 0 {
		t.Fatalf("stats credit %d deliveries despite failed receipt", st.Delivered)
	}
	if v := h.engine.opts.Metrics.ReceiptWriteFailures.Value(); v != 1 {
		t.Fatalf("receipt-write-failure counter = %d, want 1", v)
	}
}

// vanishFS wraps a filesystem and reports wrapped fs.ErrNotExist for
// paths under a prefix — the error shape os.IsNotExist does NOT see
// through, which errors.Is must.
type vanishFS struct {
	diskfault.FS
	prefix string
}

func (v vanishFS) vanished(name string) bool { return strings.HasPrefix(name, v.prefix) }

func (v vanishFS) Open(name string) (diskfault.File, error) {
	if v.vanished(name) {
		return nil, fmt.Errorf("vanishfs: open %s: %w", name, fs.ErrNotExist)
	}
	return v.FS.Open(name)
}

func (v vanishFS) Stat(name string) (os.FileInfo, error) {
	if v.vanished(name) {
		return nil, fmt.Errorf("vanishfs: stat %s: %w", name, fs.ErrNotExist)
	}
	return v.FS.Stat(name)
}

// Regression (wrapped errors): when the staging copy is gone, the
// in-memory read path must recognize a WRAPPED not-exist error and
// fall back to the archive. os.IsNotExist returned false here, turning
// an archived file into a delivery failure.
func TestReadStagedWrappedNotExistFallsBackToArchive(t *testing.T) {
	ct := newCountTrans()
	var h *harness
	h = newHarness(t, ct, []*config.Subscriber{sub("wh", "BPS")}, func(o *Options) {
		o.FS = vanishFS{FS: diskfault.OS(), prefix: filepath.Join(o.StagingRoot, "BPS")}
		o.ArchiveOpen = func(stagedPath string) (io.ReadCloser, error) {
			return io.NopCloser(strings.NewReader("from-archive")), nil
		}
	})
	h.engine.Start()
	defer h.engine.Stop()

	meta := h.stage("BPS/f1.csv", []string{"BPS"}, []byte("from-archive"))
	h.engine.EnqueueFile(meta)
	waitFor(t, "archived delivery", func() bool { return h.store.Delivered(meta.ID, "wh") })
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if ct.bytes["wh"] != int64(len("from-archive")) {
		t.Fatalf("delivered %d bytes, want archive content", ct.bytes["wh"])
	}
}

// Regression (wrapped errors): the stream-threshold Stat must also see
// through wrapping — a large archived file falls back to the in-memory
// archive path rather than failing.
func TestStreamStatWrappedNotExistFallsBackToArchive(t *testing.T) {
	ct := newCountTrans()
	h := newHarness(t, ct, []*config.Subscriber{sub("wh", "BPS")}, func(o *Options) {
		o.FS = vanishFS{FS: diskfault.OS(), prefix: filepath.Join(o.StagingRoot, "BPS")}
		o.ArchiveOpen = func(stagedPath string) (io.ReadCloser, error) {
			return io.NopCloser(strings.NewReader("archived-bytes")), nil
		}
	})
	h.engine.streamMin = 4
	h.engine.Start()
	defer h.engine.Stop()

	meta := h.stage("BPS/big.csv", []string{"BPS"}, []byte("archived-bytes"))
	h.engine.EnqueueFile(meta)
	waitFor(t, "archived stream fallback", func() bool { return h.store.Delivered(meta.ID, "wh") })
	if n := h.events.count(EvDeliveryFailed); n != 0 {
		t.Fatalf("delivery failures = %d; wrapped not-exist must reach the archive fallback", n)
	}
}
