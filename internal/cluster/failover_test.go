package cluster

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"bistro/internal/archive"
	"bistro/internal/diskfault"
	"bistro/internal/metrics"
	"bistro/internal/receipts"
)

// vanishFS wraps a filesystem and answers Open on matching paths with
// a *wrapped* fs.ErrNotExist whose text does not contain the literal
// "no such file" — the shape a fault-injecting or decorating FS layer
// produces.
type vanishFS struct {
	diskfault.FS
	substr string
}

func (v vanishFS) Open(name string) (diskfault.File, error) {
	if strings.Contains(name, v.substr) {
		return nil, fmt.Errorf("layer: file vanished: %w", fs.ErrNotExist)
	}
	return v.FS.Open(name)
}

// TestBootstrapSkipsVanishedStagedFile is the satellite-1 regression:
// a staged file that disappears between the directory listing and the
// read (archived mid-walk — surfaced as a wrapped fs.ErrNotExist, not
// a raw os error string) must be skipped, not fail the bootstrap.
func TestBootstrapSkipsVanishedStagedFile(t *testing.T) {
	st, _, _ := startTestStandby(t, nil)
	owner, err := receipts.Open(t.TempDir(), receipts.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()

	stage := t.TempDir()
	if err := os.MkdirAll(filepath.Join(stage, "f"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stage, "f", "gone.csv"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stage, "f", "kept.csv"), []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}

	sh := NewShipper(st.Addr(), ShipperOptions{Node: "a"})
	defer sh.Close()
	if err := sh.Bootstrap(owner, stage, vanishFS{FS: diskfault.OS(), substr: "gone"}); err != nil {
		t.Fatalf("bootstrap must skip a vanished staged file, got: %v", err)
	}
	if !sh.Healthy() {
		t.Fatal("stream should be up after bootstrap")
	}
	data, err := os.ReadFile(filepath.Join(st.Root(), "staging", "f", "kept.csv"))
	if err != nil || string(data) != "keep" {
		t.Fatalf("surviving staged file not shipped: %q, %v", data, err)
	}
	if _, err := os.Stat(filepath.Join(st.Root(), "staging", "f", "gone.csv")); err == nil {
		t.Fatal("vanished file must not appear on the standby")
	}
	// A walk over a staging root that does not exist at all is also fine
	// (fresh node, nothing staged yet).
	sh2 := NewShipper(st.Addr(), ShipperOptions{Node: "a"})
	defer sh2.Close()
	owner2, err := receipts.Open(t.TempDir(), receipts.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer owner2.Close()
	if err := sh2.Bootstrap(owner2, filepath.Join(t.TempDir(), "missing"), nil); err != nil {
		t.Fatalf("bootstrap over a missing staging root: %v", err)
	}
}

// TestHeartbeatRenewsLease drives idle heartbeats down the stream and
// checks the standby's owner-contact stamp advances.
func TestHeartbeatRenewsLease(t *testing.T) {
	st, reg, _ := startTestStandby(t, nil)
	owner, err := receipts.Open(t.TempDir(), receipts.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	sh := NewShipper(st.Addr(), ShipperOptions{Node: "a", Metrics: NewMetrics(metrics.NewRegistry())})
	defer sh.Close()

	if err := sh.Heartbeat(); err == nil {
		t.Fatal("heartbeat on an unbootstrapped stream must error")
	}
	if err := sh.Bootstrap(owner, t.TempDir(), nil); err != nil {
		t.Fatal(err)
	}
	first := st.LastContact()
	if first.IsZero() {
		t.Fatal("bootstrap should stamp owner contact")
	}
	time.Sleep(5 * time.Millisecond)
	if err := sh.Heartbeat(); err != nil {
		t.Fatal(err)
	}
	if !st.LastContact().After(first) {
		t.Fatal("heartbeat did not advance the owner-contact stamp")
	}
	_ = reg
}

// TestStandbyFencesStaleEpoch: once the standby has seen epoch 2, a
// shipper still announcing epoch 1 is refused (hello and heartbeat),
// the fenced counter ticks, and epoch-0 (unclustered) shippers stay
// exempt.
func TestStandbyFencesStaleEpoch(t *testing.T) {
	st, reg, alarms := startTestStandby(t, nil)
	owner, err := receipts.Open(t.TempDir(), receipts.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()

	epochA := uint64(1)
	shA := NewShipper(st.Addr(), ShipperOptions{Node: "a", Epoch: func() uint64 { return epochA }})
	defer shA.Close()
	if err := shA.Bootstrap(owner, t.TempDir(), nil); err != nil {
		t.Fatal(err)
	}
	if got := st.Epoch(); got != 1 {
		t.Fatalf("standby epoch = %d, want 1", got)
	}

	// The cluster moves on (a promotion elsewhere bumped the epoch).
	st.ObserveEpoch(2)

	if err := shA.Heartbeat(); err == nil {
		t.Fatal("stale-epoch heartbeat must be refused")
	} else if !strings.Contains(err.Error(), "fenced") {
		t.Fatalf("refusal should say fenced, got: %v", err)
	}
	if shA.Healthy() {
		t.Fatal("fenced shipper must mark its stream down")
	}
	// Re-bootstrap with the stale epoch is refused at hello.
	if err := shA.Bootstrap(owner, t.TempDir(), nil); err == nil {
		t.Fatal("stale-epoch hello must be refused")
	} else if !strings.Contains(err.Error(), "fenced") {
		t.Fatalf("hello refusal should say fenced, got: %v", err)
	}
	if got := reg.Counter("bistro_cluster_fenced_total", "").Value(); got < 2 {
		t.Fatalf("fenced counter = %d, want >= 2", got)
	}
	if alarms.count() == 0 {
		t.Fatal("fencing must raise an alarm")
	}

	// An epoch-0 shipper (pre-lease / unclustered) is never fenced.
	owner0, err := receipts.Open(t.TempDir(), receipts.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer owner0.Close()
	sh0 := NewShipper(st.Addr(), ShipperOptions{Node: "z"})
	defer sh0.Close()
	if err := sh0.Bootstrap(owner0, t.TempDir(), nil); err != nil {
		t.Fatalf("epoch-0 shipper must not be fenced: %v", err)
	}
	// A newer epoch raises the floor.
	epochB := uint64(3)
	ownerB, err := receipts.Open(t.TempDir(), receipts.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ownerB.Close()
	shB := NewShipper(st.Addr(), ShipperOptions{Node: "b", Epoch: func() uint64 { return epochB }})
	defer shB.Close()
	if err := shB.Bootstrap(ownerB, t.TempDir(), nil); err != nil {
		t.Fatal(err)
	}
	if got := st.Epoch(); got != 3 {
		t.Fatalf("standby epoch = %d, want 3", got)
	}
}

// TestShipArchiveMirrorsMove ships an archive promotion and checks the
// standby's archive tree, manifest, and staged-copy removal — then
// re-ships the same frame and expects idempotent application.
func TestShipArchiveMirrorsMove(t *testing.T) {
	st, _, _ := startTestStandby(t, nil)
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
	// Stage the payload first, as live ingest would.
	if err := shipBytes(sh, "f/old.csv", []byte("history")); err != nil {
		t.Fatal(err)
	}
	meta := receipts.FileMeta{
		ID: 7, Name: "old.csv", StagedPath: "f/old.csv",
		Feeds: []string{"f"}, Size: 7,
	}
	when := time.Now().UTC()
	if err := archiveBytes(sh, meta, when, []byte("history")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(st.Root(), "archive", "f", "old.csv"))
	if err != nil || string(data) != "history" {
		t.Fatalf("archived copy = %q, %v", data, err)
	}
	if _, err := os.Stat(filepath.Join(st.Root(), "staging", "f", "old.csv")); !os.IsNotExist(err) {
		t.Fatalf("staged copy should be dropped after the archive move, stat err = %v", err)
	}
	man, err := archive.OpenManifest(diskfault.OS(), filepath.Join(st.Root(), "archive", archive.ManifestDir))
	if err != nil {
		t.Fatal(err)
	}
	if !man.Has(7) {
		t.Fatal("standby manifest missing the archived id")
	}
	// Idempotent re-ship (bootstrap backlog path after a reconnect).
	if err := archiveBytes(sh, meta, when, []byte("history")); err != nil {
		t.Fatalf("re-shipping an applied archive frame must be a no-op: %v", err)
	}
	// Path confinement still applies to archive frames.
	sh.mu.Lock()
	_, rerr := sh.roundLocked(RepArchive{Seq: 999, Meta: receipts.FileMeta{ID: 8, StagedPath: "../escape"}, ArchivedAt: when}, nil, 0)
	sh.mu.Unlock()
	if rerr == nil {
		t.Fatal("archive path escape must nack")
	}
}

// TestShipperAlarmDeduplication (satellite 2): a dead standby raises
// one alarm for the outage, not one per failed commit; a successful
// re-bootstrap re-arms the latch.
func TestShipperAlarmDeduplication(t *testing.T) {
	st, _, _ := startTestStandby(t, nil)
	alarms := &alarmLog{}
	owner, err := receipts.Open(t.TempDir(), receipts.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	sh := NewShipper(st.Addr(), ShipperOptions{Node: "a", Alarm: alarms.add, Metrics: NewMetrics(metrics.NewRegistry())})
	defer sh.Close()
	if err := sh.Bootstrap(owner, t.TempDir(), nil); err != nil {
		t.Fatal(err)
	}
	st.Close()
	for i := 0; i < 5; i++ {
		if _, err := owner.RecordArrival(receipts.FileMeta{
			Name: fmt.Sprintf("x%d", i), StagedPath: fmt.Sprintf("f/x%d", i), Feeds: []string{"f"},
		}); err == nil {
			t.Fatal("commit should fail with the standby gone")
		}
	}
	if got := alarms.count(); got != 1 {
		t.Fatalf("one outage should raise one alarm, got %d: %v", got, alarms.all())
	}

	// Recovery: a fresh standby on a new port, re-bootstrap, then kill it
	// again — the next outage alarms again.
	st2, _, _ := startTestStandby(t, nil)
	sh2 := NewShipper(st2.Addr(), ShipperOptions{Node: "a", Alarm: alarms.add})
	defer sh2.Close()
	owner2, err := receipts.Open(t.TempDir(), receipts.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer owner2.Close()
	if err := sh2.Bootstrap(owner2, t.TempDir(), nil); err != nil {
		t.Fatal(err)
	}
	st2.Close()
	if _, err := owner2.RecordArrival(receipts.FileMeta{Name: "y", StagedPath: "f/y", Feeds: []string{"f"}}); err == nil {
		t.Fatal("commit should fail")
	}
	if got := alarms.count(); got != 2 {
		t.Fatalf("a new outage after recovery should alarm once more, got %d", got)
	}
}

// TestLeaseMonitor covers the failure detector itself: no fire before
// first contact, fire once after silence exceeds the lease, no fire on
// a detached standby, and Stop ending the watch cleanly.
func TestLeaseMonitor(t *testing.T) {
	st, reg, _ := startTestStandby(t, nil)
	owner, err := receipts.Open(t.TempDir(), receipts.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()

	var mu sync.Mutex
	fired := 0
	firedCh := make(chan struct{})
	p := FailoverParams{Lease: 60 * time.Millisecond, Heartbeat: 10 * time.Millisecond, Auto: true}
	mon := WatchLease(st, p, nil, func() {
		mu.Lock()
		fired++
		mu.Unlock()
		close(firedCh)
	})

	// No owner yet: the countdown has not started.
	time.Sleep(4 * time.Duration(p.Lease))
	if mon.Expired() {
		t.Fatal("lease must not expire before first owner contact")
	}

	sh := NewShipper(st.Addr(), ShipperOptions{Node: "a"})
	defer sh.Close()
	if err := sh.Bootstrap(owner, t.TempDir(), nil); err != nil {
		t.Fatal(err)
	}
	// Renewals hold the lease.
	for i := 0; i < 5; i++ {
		time.Sleep(p.Lease / 3)
		if err := sh.Heartbeat(); err != nil {
			t.Fatal(err)
		}
	}
	if mon.Expired() {
		t.Fatal("renewed lease must not expire")
	}
	// Silence: the owner "dies". The monitor fires exactly once.
	select {
	case <-firedCh:
	case <-time.After(5 * time.Second):
		t.Fatal("lease never expired after owner silence")
	}
	time.Sleep(3 * p.Heartbeat)
	mu.Lock()
	n := fired
	mu.Unlock()
	if n != 1 {
		t.Fatalf("onExpire ran %d times, want exactly 1", n)
	}
	if !mon.Expired() {
		t.Fatal("Expired() should report the firing")
	}
	if got := reg.Counter("bistro_cluster_lease_expiries_total", "").Value(); got != 1 {
		t.Fatalf("lease expiry counter = %d, want 1", got)
	}
	mon.Stop() // after firing: must not hang

	// A detached standby ends the watch without firing.
	st2, _, _ := startTestStandby(t, nil)
	owner2, err := receipts.Open(t.TempDir(), receipts.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer owner2.Close()
	sh2 := NewShipper(st2.Addr(), ShipperOptions{Node: "a"})
	defer sh2.Close()
	if err := sh2.Bootstrap(owner2, t.TempDir(), nil); err != nil {
		t.Fatal(err)
	}
	mon2 := WatchLease(st2, p, nil, func() { t.Error("detached standby must not fire") })
	if err := st2.Detach(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * time.Duration(p.Lease))
	mon2.Stop()
	if mon2.Expired() {
		t.Fatal("detached watch reported expiry")
	}
}

// TestStandbyAppliesDottedNames: staged and archived names that merely
// hold dots ("poll..txt", "a..b") are legal and applied. A refusal
// would mark the stream down, and re-bootstrap would re-ship the same
// file forever, so the owner could never commit again.
func TestStandbyAppliesDottedNames(t *testing.T) {
	st, _, alarms := startTestStandby(t, nil)
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
	if err := shipBytes(sh, "CPU/poll..txt", []byte("staged")); err != nil {
		t.Fatalf("shipping CPU/poll..txt: %v", err)
	}
	meta := receipts.FileMeta{ID: 9, Name: "a..b", StagedPath: "f/a..b", Feeds: []string{"f"}, Size: 8}
	if err := archiveBytes(sh, meta, time.Now().UTC(), []byte("archived")); err != nil {
		t.Fatalf("shipping the archive of f/a..b: %v", err)
	}
	for path, want := range map[string]string{
		filepath.Join(st.Root(), "staging", "CPU", "poll..txt"): "staged",
		filepath.Join(st.Root(), "archive", "f", "a..b"):        "archived",
	} {
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Fatalf("%s = %q, %v; want %q", path, got, err, want)
		}
	}
	if !sh.Healthy() || alarms.count() != 0 {
		t.Fatalf("healthy = %v, alarms = %v", sh.Healthy(), alarms.all())
	}
}
