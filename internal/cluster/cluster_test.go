package cluster

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"bistro/internal/diskfault"
	"bistro/internal/metrics"
	"bistro/internal/receipts"
)

func twoNodeTopology() Topology {
	return Topology{
		Self: "a",
		Nodes: []Node{
			{Name: "a", Addr: "127.0.0.1:7001", Standby: "127.0.0.1:7101"},
			{Name: "b", Addr: "127.0.0.1:7002"},
		},
	}
}

func TestShardMapValidation(t *testing.T) {
	cases := []struct {
		name string
		topo Topology
	}{
		{"no nodes", Topology{}},
		{"empty name", Topology{Nodes: []Node{{Addr: "x:1"}}}},
		{"dup name", Topology{Nodes: []Node{{Name: "a", Addr: "x:1"}, {Name: "a", Addr: "x:2"}}}},
		{"no addr", Topology{Nodes: []Node{{Name: "a"}}}},
		{"unknown self", Topology{Self: "z", Nodes: []Node{{Name: "a", Addr: "x:1"}}}},
	}
	for _, c := range cases {
		if _, err := NewShardMap(c.topo); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestShardMapDistributionAndStability(t *testing.T) {
	m, err := NewShardMap(twoNodeTopology())
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for i := 0; i < 1000; i++ {
		feed := fmt.Sprintf("finance/source%02d/feed%d", i%37, i)
		owner := m.Owner(feed)
		if owner.Name == "" {
			t.Fatalf("feed %s resolved to no owner", feed)
		}
		counts[owner.Name]++
		// Stable: same feed, same owner, every time.
		if again := m.Owner(feed); again.Name != owner.Name {
			t.Fatalf("feed %s moved %s -> %s with no promotion", feed, owner.Name, again.Name)
		}
	}
	for _, n := range []string{"a", "b"} {
		if counts[n] < 200 {
			t.Errorf("node %s owns only %d/1000 feeds — ring badly skewed: %v", n, counts[n], counts)
		}
	}
}

func TestShardMapPromotion(t *testing.T) {
	m, err := NewShardMap(twoNodeTopology())
	if err != nil {
		t.Fatal(err)
	}
	var aFeed string
	for i := 0; ; i++ {
		f := fmt.Sprintf("feed%d", i)
		if m.Owner(f).Name == "a" {
			aFeed = f
			break
		}
	}
	if !m.Owns(aFeed) {
		t.Fatalf("self=a should own %s", aFeed)
	}
	if err := m.Promote("a", "b"); err != nil {
		t.Fatal(err)
	}
	if got := m.Owner(aFeed).Name; got != "b" {
		t.Fatalf("after promotion Owner(%s) = %s, want b", aFeed, got)
	}
	if m.Owns(aFeed) {
		t.Fatal("a should no longer own its feed after promoting b")
	}
	if got := m.PromotedFrom("b"); len(got) != 1 || got[0] != "a" {
		t.Fatalf("PromotedFrom(b) = %v, want [a]", got)
	}
	if err := m.Promote("a", "a"); err == nil {
		t.Fatal("self-succession should be rejected")
	}
	if err := m.Promote("z", "b"); err == nil {
		t.Fatal("unknown failed node should be rejected")
	}
}

// alarmLog collects alarms raised across goroutines.
type alarmLog struct {
	mu   sync.Mutex
	msgs []string
}

func (a *alarmLog) add(msg string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.msgs = append(a.msgs, msg)
}

func (a *alarmLog) count() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.msgs)
}

func (a *alarmLog) all() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]string(nil), a.msgs...)
}

// startTestStandby launches a standby on a loopback port with the
// given filesystem, returning it plus its alarm log.
func startTestStandby(t *testing.T, fsys diskfault.FS) (*Standby, *metrics.Registry, *alarmLog) {
	t.Helper()
	reg := metrics.NewRegistry()
	alarms := &alarmLog{}
	st, err := StartStandby("127.0.0.1:0", StandbyOptions{
		Root:    t.TempDir(),
		FS:      fsys,
		Alarm:   alarms.add,
		Metrics: NewMetrics(reg),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st, reg, alarms
}

// TestReplicationRoundTrip drives a real owner store through bootstrap
// + live commits + checkpoint and verifies the standby's directory
// reopens as an identical store.
func TestReplicationRoundTrip(t *testing.T) {
	st, reg, _ := startTestStandby(t, nil)

	ownerDir := t.TempDir()
	owner, err := receipts.Open(ownerDir, receipts.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()

	// Pre-bootstrap history: lands in the snapshot.
	id0, err := owner.RecordArrival(receipts.FileMeta{Name: "pre.csv", StagedPath: "f/pre.csv", Feeds: []string{"f"}, Size: 3})
	if err != nil {
		t.Fatal(err)
	}

	sh := NewShipper(st.Addr(), ShipperOptions{Node: "a", Metrics: NewMetrics(metrics.NewRegistry())})
	defer sh.Close()
	if err := sh.Bootstrap(owner, filepath.Join(ownerDir, "nostaging"), nil); err != nil {
		t.Fatal(err)
	}
	if !sh.Healthy() {
		t.Fatal("shipper should be healthy after bootstrap")
	}
	if !owner.ShipperArmed() {
		t.Fatal("store should be armed after bootstrap")
	}

	// Live traffic: batches ship synchronously.
	var ids []uint64
	for i := 0; i < 10; i++ {
		id, err := owner.RecordArrival(receipts.FileMeta{
			Name:       fmt.Sprintf("live%d.csv", i),
			StagedPath: fmt.Sprintf("f/live%d.csv", i),
			Feeds:      []string{"f"},
			Size:       int64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := owner.RecordDelivery(ids[0], "wh", time.Now()); err != nil {
		t.Fatal(err)
	}
	// A staged file ships with CRC.
	if err := shipBytes(sh, "f/live0.csv", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	// Checkpoint ships a fresh snapshot and resets the standby WAL.
	if err := owner.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := owner.RecordArrival(receipts.FileMeta{
			Name:       fmt.Sprintf("post%d.csv", i),
			StagedPath: fmt.Sprintf("f/post%d.csv", i),
			Feeds:      []string{"f"},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if hw := sh.AckedHW(); hw == 0 || hw != st.HW() {
		t.Fatalf("high-watermark mismatch: shipper %d, standby %d", sh.AckedHW(), st.HW())
	}
	if st.OwnerNode() != "a" {
		t.Fatalf("standby owner = %q, want a", st.OwnerNode())
	}

	// Promotion: the standby root opens as a full store with identical
	// contents.
	if err := st.Detach(); err != nil {
		t.Fatal(err)
	}
	replica, err := receipts.Open(filepath.Join(st.Root(), "receipts"), receipts.Options{})
	if err != nil {
		t.Fatalf("replica open: %v", err)
	}
	defer replica.Close()

	want := owner.AllFiles()
	got := replica.AllFiles()
	if len(got) != len(want) {
		t.Fatalf("replica has %d files, owner has %d", len(got), len(want))
	}
	for _, f := range want {
		rf, ok := replica.File(f.ID)
		if !ok {
			t.Fatalf("replica missing file %d (%s)", f.ID, f.Name)
		}
		if rf.Name != f.Name || rf.StagedPath != f.StagedPath {
			t.Fatalf("replica file %d diverged: %+v vs %+v", f.ID, rf, f)
		}
	}
	if _, ok := replica.File(id0); !ok {
		t.Fatalf("replica missing pre-bootstrap arrival %d", id0)
	}
	if !replica.Delivered(ids[0], "wh") {
		t.Fatalf("replica lost delivery receipt for %d", ids[0])
	}
	data, err := os.ReadFile(filepath.Join(st.Root(), "staging", "f", "live0.csv"))
	if err != nil || string(data) != "payload" {
		t.Fatalf("shipped file content = %q, %v", data, err)
	}
	if fams := reg.Gather(); len(fams) == 0 {
		t.Fatal("standby metrics registry empty")
	}
}

// TestStandbyNacksCorruptFrames is the no-silent-drop regression: a
// corrupt shipped payload must alarm, bump the failure counter, and
// fail the owner's commit.
func TestStandbyNacksCorruptFrames(t *testing.T) {
	st, _, alarms := startTestStandby(t, nil)
	sh := NewShipper(st.Addr(), ShipperOptions{Node: "a"})
	defer sh.Close()

	owner, err := receipts.Open(t.TempDir(), receipts.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	if err := sh.Bootstrap(owner, t.TempDir(), nil); err != nil {
		t.Fatal(err)
	}

	// Bad CRC on a shipped file.
	if err := shipBytes(sh, "f/x", []byte("data")); err != nil {
		t.Fatal(err)
	}
	sh2 := NewShipper(st.Addr(), ShipperOptions{Node: "a"})
	defer sh2.Close()
	if err := sh2.shipSnapshot(mustState(t, owner)); err != nil {
		t.Fatal(err)
	}
	if err := sh2.ShipFile("f/y", strings.NewReader("data"), 4, 1); err == nil {
		t.Fatal("corrupt CRC should nack")
	}
	// Escape the staging tree.
	sh3 := NewShipper(st.Addr(), ShipperOptions{Node: "a"})
	defer sh3.Close()
	if err := sh3.shipSnapshot(mustState(t, owner)); err != nil {
		t.Fatal(err)
	}
	if err := sh3.ShipFile("../escape", strings.NewReader(""), 0, 0); err == nil {
		t.Fatal("path escape should nack")
	}
	// Garbage WAL payload.
	sh4 := NewShipper(st.Addr(), ShipperOptions{Node: "a"})
	defer sh4.Close()
	if err := sh4.shipSnapshot(mustState(t, owner)); err != nil {
		t.Fatal(err)
	}
	if err := sh4.sendRaw(RepBatch{Seq: 101, Payloads: [][]byte{[]byte("garbage")}}); err == nil {
		t.Fatal("undecodable payload should nack")
	}
	if alarms.count() < 3 {
		t.Fatalf("expected >=3 alarms for 3 corrupt frames, got %d: %v", alarms.count(), alarms.all())
	}
}

// TestStandbyDiskFaultAlarms injects a write-path fault on the standby
// filesystem and verifies the frame is nacked + alarmed (and that the
// owner's commit fails) instead of being dropped silently.
func TestStandbyDiskFaultAlarms(t *testing.T) {
	faulty := diskfault.NewFaulty(diskfault.OS(), diskfault.Options{})
	st, _, alarms := startTestStandby(t, faulty)

	owner, err := receipts.Open(t.TempDir(), receipts.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	sh := NewShipper(st.Addr(), ShipperOptions{Node: "a"})
	defer sh.Close()
	if err := sh.Bootstrap(owner, t.TempDir(), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := owner.RecordArrival(receipts.FileMeta{Name: "ok.csv", StagedPath: "f/ok.csv", Feeds: []string{"f"}}); err != nil {
		t.Fatal(err)
	}

	// Cut the standby's disk: the very next write op fails.
	faulty.SetCrashAfter(1)
	before := alarms.count()
	_, err = owner.RecordArrival(receipts.FileMeta{Name: "doomed.csv", StagedPath: "f/doomed.csv", Feeds: []string{"f"}})
	if err == nil {
		t.Fatal("commit must fail when the standby cannot make the batch durable")
	}
	if !strings.Contains(err.Error(), "replicate batch") {
		t.Fatalf("commit error should name replication, got: %v", err)
	}
	if alarms.count() <= before {
		t.Fatal("standby disk fault raised no alarm")
	}
	if sh.Healthy() {
		t.Fatal("shipper should mark the stream down after a nack")
	}
}

// TestShipperStrictWhenStandbyDown verifies a commit fails fast when
// the stream has never bootstrapped or the standby died.
func TestShipperStrictWhenStandbyDown(t *testing.T) {
	owner, err := receipts.Open(t.TempDir(), receipts.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()

	st, _, _ := startTestStandby(t, nil)
	sh := NewShipper(st.Addr(), ShipperOptions{Node: "a"})
	defer sh.Close()
	if err := sh.Bootstrap(owner, t.TempDir(), nil); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, err := owner.RecordArrival(receipts.FileMeta{Name: "x", StagedPath: "f/x", Feeds: []string{"f"}}); err == nil {
		t.Fatal("commit should fail with the standby gone")
	}
	if sh.Healthy() {
		t.Fatal("stream should be down")
	}
}

// TestReplicationConcurrentCommits exercises the group-commit ship
// path under -race: many concurrent committers, one synchronous
// stream.
func TestReplicationConcurrentCommits(t *testing.T) {
	st, _, _ := startTestStandby(t, nil)
	owner, err := receipts.Open(t.TempDir(), receipts.Options{
		GroupCommit: receipts.GroupCommitConfig{MaxBatch: 8, MaxDelay: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	sh := NewShipper(st.Addr(), ShipperOptions{Node: "a"})
	defer sh.Close()
	if err := sh.Bootstrap(owner, t.TempDir(), nil); err != nil {
		t.Fatal(err)
	}

	const workers, each = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				name := fmt.Sprintf("w%d-%d.csv", w, i)
				id, err := owner.RecordArrival(receipts.FileMeta{Name: name, StagedPath: "f/" + name, Feeds: []string{"f"}})
				if err != nil {
					errs <- err
					return
				}
				if err := owner.RecordDelivery(id, "wh", time.Now()); err != nil {
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
	if err := st.Detach(); err != nil {
		t.Fatal(err)
	}
	replica, err := receipts.Open(filepath.Join(st.Root(), "receipts"), receipts.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	if got, want := len(replica.AllFiles()), workers*each; got != want {
		t.Fatalf("replica has %d arrivals, want %d", got, want)
	}
	for _, f := range replica.AllFiles() {
		if !replica.Delivered(f.ID, "wh") {
			t.Fatalf("replica lost delivery for %d", f.ID)
		}
	}
}

func mustState(t *testing.T, s *receipts.Store) []byte {
	t.Helper()
	state, err := s.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	return state
}

// shipBytes ships data as the staged file relPath.
func shipBytes(sh *Shipper, relPath string, data []byte) error {
	return sh.ShipFile(relPath, bytes.NewReader(data), int64(len(data)), crc32.ChecksumIEEE(data))
}

// archiveBytes ships data as meta's archived content, sized and
// checksummed as its receipt would be.
func archiveBytes(sh *Shipper, meta receipts.FileMeta, at time.Time, data []byte) error {
	meta.Size, meta.Checksum = int64(len(data)), crc32.ChecksumIEEE(data)
	return sh.ShipArchive(meta, at, bytes.NewReader(data))
}

// sendRaw pushes one hand-built frame down the stream, for tests that
// need to inject corrupt messages.
func (sh *Shipper) sendRaw(msg any) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, err := sh.roundLocked(msg, nil, 0); err != nil {
		return sh.failLocked("raw", err)
	}
	return nil
}
