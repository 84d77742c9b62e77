package delivery

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"bistro/internal/backoff"
	"bistro/internal/clock"
	"bistro/internal/config"
	"bistro/internal/metrics"
	"bistro/internal/netsim"
	"bistro/internal/receipts"
	"bistro/internal/scheduler"
	"bistro/internal/transport"
	"bistro/internal/trigger"
)

// harness bundles an engine with its store and staging dir.
type harness struct {
	t       testing.TB
	engine  *Engine
	store   *receipts.Store
	staging string
	events  *eventLog
}

type eventLog struct {
	mu  sync.Mutex
	evs []Event
}

func (l *eventLog) add(ev Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.evs = append(l.evs, ev)
}

func (l *eventLog) count(k EventKind) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, ev := range l.evs {
		if ev.Kind == k {
			n++
		}
	}
	return n
}

func newHarness(t *testing.T, trans transport.Transport, subs []*config.Subscriber, mutate func(*Options)) *harness {
	t.Helper()
	return newHarnessStore(t, receipts.Options{NoSync: true}, trans, subs, mutate)
}

// newHarnessStore is newHarness over a receipt store opened with so
// (real fsyncs, a flush window, a fault-injecting FS).
func newHarnessStore(t testing.TB, so receipts.Options, trans transport.Transport, subs []*config.Subscriber, mutate func(*Options)) *harness {
	t.Helper()
	dir := t.TempDir()
	store, err := receipts.Open(filepath.Join(dir, "db"), so)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	staging := filepath.Join(dir, "staging")
	os.MkdirAll(staging, 0o755)
	evs := &eventLog{}
	opts := Options{
		Clock:        clock.NewReal(),
		Store:        store,
		Transport:    trans,
		Subscribers:  subs,
		StagingRoot:  staging,
		OfflineAfter: 2,
		OnEvent:      evs.add,
		TriggerInvoker: trigger.InvokerFunc(func(trigger.Invocation) error {
			return nil
		}),
	}
	if mutate != nil {
		mutate(&opts)
	}
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return &harness{t: t, engine: e, store: store, staging: staging, events: evs}
}

// stage writes a staged file and records its arrival.
func (h *harness) stage(name string, feeds []string, content []byte) receipts.FileMeta {
	h.t.Helper()
	p := filepath.Join(h.staging, name)
	os.MkdirAll(filepath.Dir(p), 0o755)
	if err := os.WriteFile(p, content, 0o644); err != nil {
		h.t.Fatal(err)
	}
	meta := receipts.FileMeta{
		Name:       name,
		StagedPath: name,
		Feeds:      feeds,
		Size:       int64(len(content)),
		Checksum:   crc32.ChecksumIEEE(content),
		Arrived:    time.Now(),
	}
	id, err := h.store.RecordArrival(meta)
	if err != nil {
		h.t.Fatal(err)
	}
	meta.ID = id
	return meta
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func sub(name string, feeds ...string) *config.Subscriber {
	return &config.Subscriber{
		Name:  name,
		Dest:  "in",
		Feeds: feeds,
		Retry: 20 * time.Millisecond,
	}
}

func TestPushDeliveryEndToEnd(t *testing.T) {
	dest := t.TempDir()
	lt := transport.NewLocalDir()
	lt.Register("wh", dest)
	h := newHarness(t, lt, []*config.Subscriber{sub("wh", "BPS")}, nil)
	h.engine.Start()
	defer h.engine.Stop()

	meta := h.stage("BPS/f1.csv", []string{"BPS"}, []byte("1,2,3\n"))
	h.engine.EnqueueFile(meta)
	waitFor(t, "delivery receipt", func() bool { return h.store.Delivered(meta.ID, "wh") })

	got, err := os.ReadFile(filepath.Join(dest, "in", "BPS", "f1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "1,2,3\n" {
		t.Fatalf("content = %q", got)
	}
	if h.events.count(EvDelivered) != 1 {
		t.Fatalf("delivered events = %d", h.events.count(EvDelivered))
	}
}

func TestOnlyInterestedSubscribersReceive(t *testing.T) {
	lt := transport.NewLocalDir()
	lt.Register("a", t.TempDir())
	lt.Register("b", t.TempDir())
	subs := []*config.Subscriber{sub("a", "BPS"), sub("b", "PPS")}
	h := newHarness(t, lt, subs, nil)
	h.engine.Start()
	defer h.engine.Stop()

	meta := h.stage("BPS/f1.csv", []string{"BPS"}, []byte("x"))
	h.engine.EnqueueFile(meta)
	waitFor(t, "delivery to a", func() bool { return h.store.Delivered(meta.ID, "a") })
	time.Sleep(20 * time.Millisecond)
	if h.store.Delivered(meta.ID, "b") {
		t.Fatal("uninterested subscriber received file")
	}
}

func TestNotifyMethod(t *testing.T) {
	lt := transport.NewLocalDir()
	lt.Register("viz", t.TempDir())
	s := sub("viz", "CPU")
	s.Method = config.MethodNotify
	h := newHarness(t, lt, []*config.Subscriber{s}, nil)
	h.engine.Start()
	defer h.engine.Stop()

	meta := h.stage("CPU/f1.txt", []string{"CPU"}, []byte("data"))
	h.engine.EnqueueFile(meta)
	waitFor(t, "notify receipt", func() bool { return h.store.Delivered(meta.ID, "viz") })
	ns := lt.Notifications("viz")
	if len(ns) != 1 || ns[0].FileID != meta.ID {
		t.Fatalf("notifications = %+v", ns)
	}
	if h.events.count(EvNotified) != 1 {
		t.Fatal("no notified event")
	}
}

func TestOfflineDetectionAndBackfill(t *testing.T) {
	ns := netsim.New(clock.NewReal())
	ns.Register("wh", netsim.HostConfig{})
	ns.SetDown("wh", true)
	h := newHarness(t, ns, []*config.Subscriber{sub("wh", "BPS")}, nil)
	h.engine.Start()
	defer h.engine.Stop()

	meta := h.stage("BPS/f1.csv", []string{"BPS"}, []byte("x"))
	h.engine.EnqueueFile(meta)
	waitFor(t, "offline flag", func() bool { return h.engine.Offline("wh") })

	// Files arriving while offline skip the queue entirely.
	meta2 := h.stage("BPS/f2.csv", []string{"BPS"}, []byte("y"))
	h.engine.EnqueueFile(meta2)

	// Reconnect: prober brings the subscriber back and backfills both.
	ns.SetDown("wh", false)
	waitFor(t, "backfill of f1", func() bool { return h.store.Delivered(meta.ID, "wh") })
	waitFor(t, "backfill of f2", func() bool { return h.store.Delivered(meta2.ID, "wh") })
	if h.events.count(EvSubscriberOnline) == 0 || h.events.count(EvBackfillQueued) == 0 {
		t.Fatal("missing online/backfill events")
	}
	if h.engine.Offline("wh") {
		t.Fatal("still offline")
	}
}

func TestStartBackfillsNewSubscriber(t *testing.T) {
	// History exists in the store before the engine starts (new
	// subscriber / server restart case).
	lt := transport.NewLocalDir()
	lt.Register("late", t.TempDir())
	h := newHarness(t, lt, []*config.Subscriber{sub("late", "BPS")}, nil)

	var metas []receipts.FileMeta
	for i := 0; i < 5; i++ {
		metas = append(metas, h.stage(fmt.Sprintf("BPS/h%d.csv", i), []string{"BPS"}, []byte("h")))
	}
	h.engine.Start()
	defer h.engine.Stop()
	for _, m := range metas {
		m := m
		waitFor(t, "history delivery", func() bool { return h.store.Delivered(m.ID, "late") })
	}
}

func TestGroupDeliverySharedRead(t *testing.T) {
	lt := transport.NewLocalDir()
	subs := []*config.Subscriber{}
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("s%d", i)
		lt.Register(name, t.TempDir())
		subs = append(subs, sub(name, "BPS"))
	}
	h := newHarness(t, lt, subs, func(o *Options) {
		o.Scheduler = scheduler.Config{
			Partitions:    []scheduler.PartitionConfig{{Name: "p", Workers: 2, Policy: scheduler.EDF}},
			GroupSameFile: true,
		}
	})
	h.engine.Start()
	defer h.engine.Stop()

	meta := h.stage("BPS/f.csv", []string{"BPS"}, []byte("shared"))
	h.engine.EnqueueFile(meta)
	for _, s := range subs {
		s := s
		waitFor(t, "group delivery", func() bool { return h.store.Delivered(meta.ID, s.Name) })
	}
}

func TestMissingStagedFileDoesNotWedge(t *testing.T) {
	lt := transport.NewLocalDir()
	lt.Register("wh", t.TempDir())
	h := newHarness(t, lt, []*config.Subscriber{sub("wh", "BPS")}, nil)
	h.engine.Start()
	defer h.engine.Stop()

	meta := h.stage("BPS/gone.csv", []string{"BPS"}, []byte("x"))
	os.Remove(filepath.Join(h.staging, "BPS", "gone.csv"))
	h.engine.EnqueueFile(meta)
	waitFor(t, "failure event", func() bool { return h.events.count(EvDeliveryFailed) >= 1 })

	// Engine still functions afterwards.
	meta2 := h.stage("BPS/ok.csv", []string{"BPS"}, []byte("y"))
	h.engine.EnqueueFile(meta2)
	waitFor(t, "subsequent delivery", func() bool { return h.store.Delivered(meta2.ID, "wh") })
}

func TestPerFileTriggerFires(t *testing.T) {
	lt := transport.NewLocalDir()
	lt.Register("wh", t.TempDir())
	s := sub("wh", "BPS")
	s.Trigger = config.TriggerSpec{Mode: config.TriggerPerFile, Exec: "load %f"}
	var mu sync.Mutex
	var fired []trigger.Invocation
	h := newHarness(t, lt, []*config.Subscriber{s}, func(o *Options) {
		o.TriggerInvoker = trigger.InvokerFunc(func(inv trigger.Invocation) error {
			mu.Lock()
			fired = append(fired, inv)
			mu.Unlock()
			return nil
		})
	})
	h.engine.Start()
	defer h.engine.Stop()

	meta := h.stage("BPS/f.csv", []string{"BPS"}, []byte("x"))
	h.engine.EnqueueFile(meta)
	waitFor(t, "trigger", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(fired) == 1
	})
	mu.Lock()
	defer mu.Unlock()
	if fired[0].Command != "load in/BPS/f.csv" {
		t.Fatalf("command = %q", fired[0].Command)
	}
}

func TestRemoteTriggerRoutesThroughTransport(t *testing.T) {
	ns := netsim.New(clock.NewReal())
	ns.Register("wh", netsim.HostConfig{})
	s := sub("wh", "BPS")
	s.Trigger = config.TriggerSpec{Mode: config.TriggerPerFile, Exec: "refresh %f", Remote: true}
	h := newHarness(t, ns, []*config.Subscriber{s}, nil)
	h.engine.Start()
	defer h.engine.Stop()

	meta := h.stage("BPS/f.csv", []string{"BPS"}, []byte("x"))
	h.engine.EnqueueFile(meta)
	waitFor(t, "remote trigger", func() bool { return len(ns.Triggered("wh")) == 1 })
	if cmds := ns.Triggered("wh"); cmds[0] != "refresh in/BPS/f.csv" {
		t.Fatalf("remote command = %q", cmds[0])
	}
}

func TestBatchTriggerViaPunctuation(t *testing.T) {
	lt := transport.NewLocalDir()
	lt.Register("wh", t.TempDir())
	s := sub("wh", "BPS")
	s.Trigger = config.TriggerSpec{Mode: config.TriggerBatch, Count: 100, Timeout: time.Hour, Exec: "load %f"}
	var mu sync.Mutex
	fired := 0
	h := newHarness(t, lt, []*config.Subscriber{s}, func(o *Options) {
		o.TriggerInvoker = trigger.InvokerFunc(func(inv trigger.Invocation) error {
			mu.Lock()
			fired++
			mu.Unlock()
			return nil
		})
	})
	h.engine.Start()
	defer h.engine.Stop()

	for i := 0; i < 3; i++ {
		meta := h.stage(fmt.Sprintf("BPS/f%d.csv", i), []string{"BPS"}, []byte("x"))
		h.engine.EnqueueFile(meta)
		waitFor(t, "delivery", func() bool { return h.store.Delivered(meta.ID, "wh") })
	}
	mu.Lock()
	if fired != 0 {
		mu.Unlock()
		t.Fatal("batch fired early")
	}
	mu.Unlock()
	h.engine.Punctuate("BPS")
	waitFor(t, "punctuation trigger", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return fired == 1
	})
}

func TestStopIsIdempotent(t *testing.T) {
	lt := transport.NewLocalDir()
	lt.Register("wh", t.TempDir())
	h := newHarness(t, lt, []*config.Subscriber{sub("wh", "BPS")}, nil)
	h.engine.Start()
	h.engine.Stop()
	h.engine.Stop()
}

func TestInteractiveClassGetsFirstPartition(t *testing.T) {
	lt := transport.NewLocalDir()
	lt.Register("viz", t.TempDir())
	lt.Register("bulk", t.TempDir())
	fast := sub("viz", "BPS")
	fast.Class = "interactive"
	slow := sub("bulk", "BPS")
	h := newHarness(t, lt, []*config.Subscriber{fast, slow}, nil)
	defer h.engine.Stop()
	if p := h.engine.Scheduler().PartitionOf("viz"); p != 0 {
		t.Fatalf("viz partition = %d", p)
	}
	last := len(h.engine.Scheduler().Partitions()) - 1
	if p := h.engine.Scheduler().PartitionOf("bulk"); p != last {
		t.Fatalf("bulk partition = %d", p)
	}
}

// flakyTransport fails the first n Deliver calls per subscriber, then
// succeeds — exercising the transient-retry (requeue) path that stays
// below the offline threshold.
type flakyTransport struct {
	inner transport.Transport
	mu    sync.Mutex
	fails map[string]int
}

func (f *flakyTransport) Deliver(sub string, file transport.File) error {
	f.mu.Lock()
	n := f.fails[sub]
	if n > 0 {
		f.fails[sub] = n - 1
		f.mu.Unlock()
		return fmt.Errorf("flaky: transient failure (%d left)", n-1)
	}
	f.mu.Unlock()
	return f.inner.Deliver(sub, file)
}

func (f *flakyTransport) Notify(sub string, file transport.File) error {
	return f.inner.Notify(sub, file)
}
func (f *flakyTransport) Trigger(sub, cmd string, paths []string) error {
	return f.inner.Trigger(sub, cmd, paths)
}
func (f *flakyTransport) Ping(sub string) error { return f.inner.Ping(sub) }

func TestTransientFailureRetriesWithoutOffline(t *testing.T) {
	lt := transport.NewLocalDir()
	lt.Register("wh", t.TempDir())
	flaky := &flakyTransport{inner: lt, fails: map[string]int{"wh": 1}}
	h := newHarness(t, flaky, []*config.Subscriber{sub("wh", "BPS")}, func(o *Options) {
		o.OfflineAfter = 3
	})
	h.engine.Start()
	defer h.engine.Stop()

	meta := h.stage("BPS/f.csv", []string{"BPS"}, []byte("x"))
	h.engine.EnqueueFile(meta)
	waitFor(t, "delivery after transient failure", func() bool {
		return h.store.Delivered(meta.ID, "wh")
	})
	if h.engine.Offline("wh") {
		t.Fatal("transient failure flagged subscriber offline")
	}
	if h.events.count(EvDeliveryFailed) != 1 {
		t.Fatalf("failure events = %d, want 1", h.events.count(EvDeliveryFailed))
	}
	if h.events.count(EvSubscriberOffline) != 0 {
		t.Fatal("spurious offline event")
	}
}

// heldTransport parks the Deliver to subscriber "gate" until released,
// so a test can queue jobs behind a worker it knows to be busy.
type heldTransport struct {
	transport.Transport
	entered, release chan struct{}
}

func (h *heldTransport) Deliver(sub string, f transport.File) error {
	if sub == "gate" {
		close(h.entered)
		<-h.release
	}
	return h.Transport.Deliver(sub, f)
}

func TestFeedPriorityOrdersPrioEDF(t *testing.T) {
	// A single slow worker with a prioritized policy must deliver the
	// high-priority fault feed ahead of earlier-queued bulk files.
	lt := transport.NewLocalDir()
	lt.Register("wh", t.TempDir())
	lt.Register("gate", t.TempDir())
	held := &heldTransport{Transport: lt, entered: make(chan struct{}), release: make(chan struct{})}
	var mu sync.Mutex
	var order []string
	subs := []*config.Subscriber{sub("wh", "BULK", "FAULTS"), sub("gate", "GATE")}
	h := newHarness(t, held, subs, func(o *Options) {
		o.Scheduler = scheduler.Config{
			Partitions:               []scheduler.PartitionConfig{{Name: "p", Workers: 1, Policy: scheduler.PrioEDF}},
			MaxInFlightPerSubscriber: 4,
		}
		o.FeedPriority = map[string]int{"FAULTS": 10}
		o.OnEvent = func(ev Event) {
			if ev.Kind == EvDelivered && ev.Subscriber == "wh" {
				mu.Lock()
				order = append(order, ev.Feed)
				mu.Unlock()
			}
		}
	})
	h.engine.Start()
	defer h.engine.Stop()
	// Keep the one worker busy on another subscriber's file while the
	// backfill pass queues all four, so the policy (not which job the
	// worker happened to claim mid-pass) decides the order.
	h.engine.EnqueueFile(h.stage("GATE/g.csv", []string{"GATE"}, []byte("g")))
	<-held.entered
	for i := 0; i < 3; i++ {
		h.stage(fmt.Sprintf("BULK/b%d.csv", i), []string{"BULK"}, []byte("b"))
	}
	h.stage("FAULTS/alert.log", []string{"FAULTS"}, []byte("f"))
	h.engine.QueueBackfill("wh")
	close(held.release)
	waitFor(t, "all delivered", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(order) >= 4
	})
	mu.Lock()
	defer mu.Unlock()
	if order[0] != "FAULTS" {
		t.Fatalf("delivery order = %v; fault feed should go first", order)
	}
}

func TestEngineStats(t *testing.T) {
	ns := netsim.New(clock.NewReal())
	ns.Register("good", netsim.HostConfig{})
	ns.Register("bad", netsim.HostConfig{})
	ns.SetDown("bad", true)
	h := newHarness(t, ns, []*config.Subscriber{sub("good", "BPS"), sub("bad", "BPS")}, nil)
	h.engine.Start()
	defer h.engine.Stop()

	meta := h.stage("BPS/f.csv", []string{"BPS"}, []byte("12345"))
	h.engine.EnqueueFile(meta)
	waitFor(t, "good delivery", func() bool { return h.store.Delivered(meta.ID, "good") })
	waitFor(t, "bad offline", func() bool { return h.engine.Offline("bad") })

	stats := h.engine.Stats()
	g := stats["good"]
	if g.Delivered != 1 || g.Bytes != 5 || g.Offline {
		t.Fatalf("good stats = %+v", g)
	}
	b := stats["bad"]
	if b.Failures == 0 || !b.Offline || b.Delivered != 0 {
		t.Fatalf("bad stats = %+v", b)
	}
	if _, ok := stats["ghost"]; ok {
		t.Fatal("unknown subscriber in stats")
	}
}

func TestStreamingLocalDelivery(t *testing.T) {
	// Files above the stream threshold take the path-based route even
	// through the local transport.
	dest := t.TempDir()
	lt := transport.NewLocalDir()
	lt.Register("wh", dest)
	h := newHarness(t, lt, []*config.Subscriber{sub("wh", "BPS")}, nil)
	h.engine.streamMin = 1 // everything streams
	h.engine.Start()
	defer h.engine.Stop()
	payload := make([]byte, 128<<10)
	for i := range payload {
		payload[i] = byte(i % 199)
	}
	meta := h.stage("BPS/big.bin", []string{"BPS"}, payload)
	h.engine.EnqueueFile(meta)
	waitFor(t, "streamed delivery", func() bool { return h.store.Delivered(meta.ID, "wh") })
	got, err := os.ReadFile(filepath.Join(dest, "in", "BPS", "big.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(payload) {
		t.Fatalf("size = %d", len(got))
	}
	for i := range got {
		if got[i] != payload[i] {
			t.Fatalf("content mismatch at %d", i)
		}
	}
}

// TestFlapLifecycleUnderSimulatedClock drives the full
// offline→probe→online→backfill lifecycle on a simulated clock against
// a scripted flap schedule: two outage windows, with recovery (and
// half-open probe admission) between and after them.
func TestFlapLifecycleUnderSimulatedClock(t *testing.T) {
	start := time.Unix(1_000_000, 0)
	clk := clock.NewSimulated(start)
	ns := netsim.New(clk)
	ns.Register("wh", netsim.HostConfig{})
	ns.SetFaults("wh", netsim.FaultPlan{Windows: []netsim.FlapWindow{
		{From: start, Until: start.Add(10 * time.Second)},
		{From: start.Add(20 * time.Second), Until: start.Add(30 * time.Second)},
	}})
	h := newHarness(t, ns, []*config.Subscriber{sub("wh", "BPS")}, func(o *Options) {
		o.Clock = clk
		o.OfflineAfter = 2
		o.Backoff = backoff.Policy{Base: 100 * time.Millisecond, Max: time.Second, Multiplier: 2, NoJitter: true}
	})
	h.engine.Start()
	defer h.engine.Stop()

	// advanceUntil steps simulated time while polling cond, so timers
	// (retry releases, probe windows) keep firing.
	advanceUntil := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if cond() {
				return
			}
			clk.Advance(50 * time.Millisecond)
			time.Sleep(time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s (sim now %v)", what, clk.Now().Sub(start))
	}

	meta1 := h.stage("BPS/f1.csv", []string{"BPS"}, []byte("one"))
	h.engine.EnqueueFile(meta1)

	// First failure is below the threshold: a delayed retry, not
	// offline.
	advanceUntil("first retry scheduled", func() bool { return h.events.count(EvRetryScheduled) >= 1 })
	// Second failure trips the breaker: offline + prober started.
	advanceUntil("circuit open", func() bool {
		return h.events.count(EvCircuitOpen) >= 1 && h.engine.Offline("wh")
	})
	if h.events.count(EvSubscriberOffline) != 1 {
		t.Fatalf("offline events = %d, want 1", h.events.count(EvSubscriberOffline))
	}
	// While still inside the outage window the breaker must admit at
	// least one half-open probe, fail it, and reopen.
	advanceUntil("failed half-open probe", func() bool {
		return h.events.count(EvCircuitHalfOpen) >= 1 && h.events.count(EvCircuitOpen) >= 2
	})
	if clk.Now().After(start.Add(10 * time.Second)) {
		t.Fatalf("probe churn took past the outage window: %v", clk.Now().Sub(start))
	}
	// Past the window a probe succeeds: online + backfill delivers f1.
	advanceUntil("recovery and backfill", func() bool {
		return h.events.count(EvSubscriberOnline) >= 1 && h.store.Delivered(meta1.ID, "wh")
	})
	if h.events.count(EvBackfillQueued) < 1 {
		t.Fatalf("no backfill queued on recovery")
	}
	if ns.Pings("wh") < 2 {
		t.Fatalf("pings = %d, want >= 2 (one failed, one successful probe)", ns.Pings("wh"))
	}

	// Second flap: advance into the next outage window, enqueue more
	// traffic, and watch the lifecycle repeat.
	clk.AdvanceTo(start.Add(21 * time.Second))
	time.Sleep(5 * time.Millisecond)
	meta2 := h.stage("BPS/f2.csv", []string{"BPS"}, []byte("two"))
	h.engine.EnqueueFile(meta2)
	advanceUntil("second offline", func() bool { return h.events.count(EvSubscriberOffline) >= 2 })
	advanceUntil("second recovery", func() bool {
		return h.events.count(EvSubscriberOnline) >= 2 && h.store.Delivered(meta2.ID, "wh")
	})

	st := h.engine.Stats()["wh"]
	if st.Offline || st.Circuit != "closed" {
		t.Fatalf("final state = %+v, want online/closed", st)
	}
	if got := len(ns.Delivered("wh")); got != 2 {
		t.Fatalf("delivered = %d files, want 2", got)
	}
}

// errsOf collects the errors attached to events of one kind.
func (l *eventLog) errsOf(k EventKind) []error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []error
	for _, ev := range l.evs {
		if ev.Kind == k {
			out = append(out, ev.Err)
		}
	}
	return out
}

// Regression: a job whose arrival receipt has vanished (or was
// quarantined by reconciliation) must be skipped with an explicit
// failure, never delivered with zero-value metadata. Previously the
// File() miss was ignored and the job proceeded with an empty FileMeta.
func TestMissingReceiptSkipsJobWithFailure(t *testing.T) {
	dest := t.TempDir()
	lt := transport.NewLocalDir()
	lt.Register("wh", dest)
	reg := metrics.NewRegistry()
	h := newHarness(t, lt, []*config.Subscriber{sub("wh", "BPS")}, func(o *Options) {
		o.Metrics = NewMetrics(reg)
	})
	h.engine.Start()
	defer h.engine.Stop()

	// A receipt id the store has never seen: the enqueue-time meta
	// says it exists, the store disagrees.
	ghost := receipts.FileMeta{
		ID:         9999,
		Name:       "BPS/ghost.csv",
		StagedPath: "BPS/ghost.csv",
		Feeds:      []string{"BPS"},
		Size:       3,
		Arrived:    time.Now(),
	}
	h.engine.EnqueueFile(ghost)

	waitFor(t, "receipt-missing failure", func() bool {
		return h.events.count(EvDeliveryFailed) >= 1
	})
	for _, err := range h.events.errsOf(EvDeliveryFailed) {
		if !errors.Is(err, ErrReceiptMissing) {
			t.Fatalf("failure error = %v, want ErrReceiptMissing", err)
		}
	}
	if h.events.count(EvDelivered) != 0 {
		t.Fatal("ghost job was delivered")
	}
	if _, err := os.Stat(filepath.Join(dest, "in", "BPS", "ghost.csv")); err == nil {
		t.Fatal("zero-value metadata produced a delivered file")
	}
	if st := h.engine.Stats()["wh"]; st.Failures != 1 || st.Delivered != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if got := h.engine.opts.Metrics.ReceiptMissing.Value(); got != 1 {
		t.Fatalf("receipt_missing counter = %d", got)
	}

	// A quarantined receipt is treated the same way: reconciliation
	// has ruled the payload untrustworthy.
	meta := h.stage("BPS/quar.csv", []string{"BPS"}, []byte("x,y\n"))
	if err := h.store.RecordQuarantine(meta.ID); err != nil {
		t.Fatal(err)
	}
	h.engine.EnqueueFile(meta)
	waitFor(t, "quarantined receipt failure", func() bool {
		return h.events.count(EvDeliveryFailed) >= 2
	})
	if h.events.count(EvDelivered) != 0 {
		t.Fatal("quarantined job was delivered")
	}
	if got := h.engine.opts.Metrics.ReceiptMissing.Value(); got != 2 {
		t.Fatalf("receipt_missing counter = %d", got)
	}
	// The scheduler slot was released: a healthy job still flows.
	ok := h.stage("BPS/ok.csv", []string{"BPS"}, []byte("1\n"))
	h.engine.EnqueueFile(ok)
	waitFor(t, "healthy delivery after skips", func() bool {
		return h.events.count(EvDelivered) == 1
	})
}
