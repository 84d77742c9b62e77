package server

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"bistro/internal/diskfault"
	"bistro/internal/feedlog"
)

const reconcileConfig = `
feed CPU { pattern "CPU_POLL%i_%Y%m%d%H%M.txt" }
subscriber wh { dest "in" subscribe CPU }
`

// depositAndStop runs a server over root, ingests one CPU file, waits
// for delivery, and shuts down — leaving a consistent root for the
// reconcile tests to damage.
func depositAndStop(t *testing.T, root string) (stagedPath string) {
	t.Helper()
	s, err := New(Options{Config: mustConfig(t, reconcileConfig), Root: root, ScanInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	s.Deposit("CPU_POLL1_201009250451.txt", []byte("payload"))
	waitFor(t, "delivery", func() bool {
		st, _ := s.Logger().Stats("CPU")
		return st.Delivered == 1
	})
	s.Stop()
	return filepath.Join(root, "staging", "CPU", "CPU_POLL1_201009250451.txt")
}

func TestReconcileQuarantinesMissingStagedFile(t *testing.T) {
	root := t.TempDir()
	staged := depositAndStop(t, root)
	if err := os.Remove(staged); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var alarms []feedlog.Alarm
	cfg2 := reconcileConfig + `subscriber late { dest "late-in" subscribe CPU }` + "\n"
	s2, err := New(Options{
		Config: mustConfig(t, cfg2), Root: root, ScanInterval: -1,
		OnAlarm: func(a feedlog.Alarm) {
			mu.Lock()
			alarms = append(alarms, a)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Stop()
	if err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	if got := s2.Store().Stats().Quarantined; got != 1 {
		t.Fatalf("quarantined = %d, want 1", got)
	}
	// The latecomer's backfill must exclude the quarantined arrival.
	if pend := s2.Store().PendingFor("late", []string{"CPU"}); len(pend) != 0 {
		t.Fatalf("quarantined arrival still pending: %+v", pend)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(alarms) == 0 || !strings.Contains(alarms[0].Message, "quarantined") {
		t.Fatalf("expected a quarantine alarm, got %+v", alarms)
	}
}

func TestReconcileMovesCorruptStagedFileToQuarantine(t *testing.T) {
	root := t.TempDir()
	staged := depositAndStop(t, root)
	if err := os.WriteFile(staged, []byte("garbage that fails the checksum"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Options{Config: mustConfig(t, reconcileConfig), Root: root, ScanInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Stop()
	if err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	if got := s2.Store().Stats().Quarantined; got != 1 {
		t.Fatalf("quarantined = %d, want 1", got)
	}
	want := filepath.Join(root, "quarantine", "CPU", "CPU_POLL1_201009250451.txt")
	if _, err := os.Stat(want); err != nil {
		t.Fatalf("corrupt file not moved to quarantine: %v", err)
	}
	if _, err := os.Stat(staged); !os.IsNotExist(err) {
		t.Fatal("corrupt file still in staging")
	}
}

func TestReconcileReingestsIdentityOrphan(t *testing.T) {
	// A crash between the staging rename and the arrival commit leaves
	// a staged file with no receipt; when current definitions still map
	// it to the same path, reconcile records a fresh arrival and
	// backfill delivers it.
	root := t.TempDir()
	orphan := filepath.Join(root, "staging", "CPU", "CPU_POLL2_201009250452.txt")
	if err := os.MkdirAll(filepath.Dir(orphan), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(orphan, []byte("orphan payload"), 0o644); err != nil {
		t.Fatal(err)
	}

	s := newServer(t, reconcileConfig, func(o *Options) { o.Root = root })
	want := filepath.Join(root, "in", "CPU", "CPU_POLL2_201009250452.txt")
	waitFor(t, "orphan backfill delivery", func() bool {
		_, err := os.Stat(want)
		return err == nil
	})
	if got := s.Store().Stats().Files; got != 1 {
		t.Fatalf("store files = %d, want 1", got)
	}
}

func TestReconcileQuarantinesUnidentifiableOrphan(t *testing.T) {
	root := t.TempDir()
	orphan := filepath.Join(root, "staging", "CPU", "not-a-cpu-file.bin")
	if err := os.MkdirAll(filepath.Dir(orphan), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(orphan, []byte("???"), 0o644); err != nil {
		t.Fatal(err)
	}

	newServer(t, reconcileConfig, func(o *Options) { o.Root = root })
	want := filepath.Join(root, "quarantine", "orphans", "CPU", "not-a-cpu-file.bin")
	if _, err := os.Stat(want); err != nil {
		t.Fatalf("orphan not quarantined: %v", err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("orphan still in staging")
	}
}

func TestStartRemovesStaleTempFiles(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "staging", "CPU")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, ".bistro-tmp-12345")
	if err := os.WriteFile(stale, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}

	newServer(t, reconcileConfig, func(o *Options) { o.Root = root })
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale temp file survived startup")
	}
}

func TestQuarantineDirConfigKnob(t *testing.T) {
	root := t.TempDir()
	staged := depositAndStop(t, root)
	if err := os.WriteFile(staged, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	cfg := `quarantine "sickbay"` + "\n" + reconcileConfig
	s2, err := New(Options{Config: mustConfig(t, cfg), Root: root, ScanInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Stop()
	if err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(root, "sickbay", "CPU", "CPU_POLL1_201009250451.txt")
	if _, err := os.Stat(want); err != nil {
		t.Fatalf("configured quarantine dir not used: %v", err)
	}
}

// Start-up removes the temps a crash leaves in every tree a Writer or
// Receive writes (landing, staging, quarantine, receipts and the
// archive) and nothing else there.
func TestStartupSweepsEveryTempTree(t *testing.T) {
	root := t.TempDir()
	cfg := mustConfig(t, reconcileConfig+`archive "arch"`+"\n")
	staged := depositAndStop(t, root)
	keep := []string{
		staged,
		filepath.Join(root, "landing", ".CPU_POLL1_201009250452.txt.part"),
		filepath.Join(root, "quarantine", "kept"),
		filepath.Join(root, "arch", "CPU", "kept.txt"),
	}
	receiptsFiles, err := os.ReadDir(filepath.Join(root, "receipts"))
	if err != nil || len(receiptsFiles) == 0 {
		t.Fatalf("receipts dir: %v, %v", receiptsFiles, err)
	}
	for _, e := range receiptsFiles {
		keep = append(keep, filepath.Join(root, "receipts", e.Name()))
	}
	var temps []string
	for _, dir := range []string{"landing", "staging/CPU", "quarantine", "receipts", "arch/CPU", "arch/receipts-backup"} {
		temps = append(temps, filepath.Join(root, filepath.FromSlash(dir), diskfault.TmpPrefix+"stale"))
	}
	for _, p := range append(temps, keep[1:4]...) {
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte("half"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(Options{Config: cfg, Root: root, ScanInterval: -1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	for _, p := range temps {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("stale temp %s survived start-up (%v)", p, err)
		}
	}
	for _, p := range keep {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("start-up removed %s: %v", p, err)
		}
	}
}
