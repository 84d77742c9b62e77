package archive

import (
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"bistro/internal/clock"
	"bistro/internal/receipts"
)

var t0 = time.Date(2011, 6, 12, 10, 0, 0, 0, time.UTC)

type fixture struct {
	store    *receipts.Store
	clk      *clock.Simulated
	arch     *Archiver
	staging  string
	archRoot string
	dbDir    string
}

func newFixture(t *testing.T, window time.Duration) *fixture {
	t.Helper()
	root := t.TempDir()
	dbDir := filepath.Join(root, "db")
	store, err := receipts.Open(dbDir, receipts.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	staging := filepath.Join(root, "staging")
	archRoot := filepath.Join(root, "archive")
	os.MkdirAll(staging, 0o755)
	clk := clock.NewSimulated(t0)
	arch, err := New(store, clk, staging, archRoot, window)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{store: store, clk: clk, arch: arch, staging: staging, archRoot: archRoot, dbDir: dbDir}
}

func (f *fixture) stage(t *testing.T, name string, dataTime time.Time) uint64 {
	t.Helper()
	p := filepath.Join(f.staging, name)
	os.MkdirAll(filepath.Dir(p), 0o755)
	if err := os.WriteFile(p, []byte("data-"+name), 0o644); err != nil {
		t.Fatal(err)
	}
	id, err := f.store.RecordArrival(receipts.FileMeta{
		Name: name, StagedPath: name, Feeds: []string{"F"},
		Size: 10, Arrived: dataTime, DataTime: dataTime,
	})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestExpireMovesOldFiles(t *testing.T) {
	f := newFixture(t, 24*time.Hour)
	f.stage(t, "old.csv", t0.Add(-48*time.Hour))
	f.stage(t, "new.csv", t0.Add(-time.Hour))

	n, err := f.arch.ExpireOnce()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("expired = %d, want 1", n)
	}
	if _, err := os.Stat(filepath.Join(f.staging, "old.csv")); !os.IsNotExist(err) {
		t.Fatal("old file still staged")
	}
	if _, err := os.Stat(filepath.Join(f.archRoot, "old.csv")); err != nil {
		t.Fatal("old file not archived")
	}
	if _, err := os.Stat(filepath.Join(f.staging, "new.csv")); err != nil {
		t.Fatal("new file disturbed")
	}
}

func TestExpireWithoutWindowIsNoop(t *testing.T) {
	f := newFixture(t, 0)
	f.stage(t, "old.csv", t0.Add(-1000*time.Hour))
	n, err := f.arch.ExpireOnce()
	if err != nil || n != 0 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

func TestOpenArchivedFile(t *testing.T) {
	f := newFixture(t, time.Hour)
	f.stage(t, "SNMP/BPS/old.csv", t0.Add(-2*time.Hour))
	if _, err := f.arch.ExpireOnce(); err != nil {
		t.Fatal(err)
	}
	rc, err := f.arch.Open("SNMP/BPS/old.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	data, _ := io.ReadAll(rc)
	if string(data) != "data-SNMP/BPS/old.csv" {
		t.Fatalf("content = %q", data)
	}
	if _, err := f.arch.Open("never-existed"); err == nil {
		t.Fatal("opened missing archive file")
	}
}

// Open hands HTTP, fetch and shipping an *os.File over the real
// filesystem, staged or archived, so net/http can sendfile it.
func TestOpenGivesAnOSFile(t *testing.T) {
	f := newFixture(t, time.Hour)
	f.stage(t, "SNMP/BPS/old.csv", t0.Add(-2*time.Hour))
	f.stage(t, "SNMP/BPS/new.csv", t0)
	if _, err := f.arch.ExpireOnce(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"SNMP/BPS/old.csv", "SNMP/BPS/new.csv"} {
		rc, err := f.arch.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := rc.(*os.File); !ok {
			t.Errorf("Open(%s) gave a %T, want an *os.File", name, rc)
		}
		if data, err := io.ReadAll(rc); err != nil || string(data) != "data-"+name {
			t.Errorf("Open(%s) read %q, %v", name, data, err)
		}
		rc.Close()
	}
}

func TestBackupAndRestoreReceipts(t *testing.T) {
	f := newFixture(t, time.Hour)
	id := f.stage(t, "f.csv", t0)
	f.store.RecordDelivery(id, "wh", t0)
	if err := f.arch.BackupReceipts(f.dbDir); err != nil {
		t.Fatal(err)
	}
	f.store.Close()

	// Catastrophic loss of the receipts directory.
	os.RemoveAll(f.dbDir)
	if err := f.arch.RestoreReceipts(f.dbDir); err != nil {
		t.Fatal(err)
	}
	restored, err := receipts.Open(f.dbDir, receipts.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if !restored.Delivered(id, "wh") {
		t.Fatal("delivery receipt lost through backup/restore")
	}
}

func TestExpiredFileAlreadyGoneIsTolerated(t *testing.T) {
	f := newFixture(t, time.Hour)
	f.stage(t, "ghost.csv", t0.Add(-2*time.Hour))
	os.Remove(filepath.Join(f.staging, "ghost.csv"))
	if _, err := f.arch.ExpireOnce(); err != nil {
		t.Fatalf("missing staged file should be tolerated: %v", err)
	}
}

func TestNoArchiveRootDeletes(t *testing.T) {
	root := t.TempDir()
	store, err := receipts.Open(filepath.Join(root, "db"), receipts.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	staging := filepath.Join(root, "staging")
	os.MkdirAll(staging, 0o755)
	clk := clock.NewSimulated(t0)
	arch, err := New(store, clk, staging, "", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(staging, "x.csv"), []byte("d"), 0o644)
	store.RecordArrival(receipts.FileMeta{Name: "x.csv", StagedPath: "x.csv", Feeds: []string{"F"}, DataTime: t0.Add(-2 * time.Hour), Arrived: t0})
	if _, err := arch.ExpireOnce(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(staging, "x.csv")); !os.IsNotExist(err) {
		t.Fatal("file not deleted without archive root")
	}
	if err := arch.BackupReceipts(""); err == nil {
		t.Fatal("backup without archive root accepted")
	}
}
