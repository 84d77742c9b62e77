package archive

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bistro/internal/clock"
	"bistro/internal/diskfault"
	"bistro/internal/metrics"
	"bistro/internal/receipts"
)

func (f *fixture) enableManifest(t *testing.T) *Manifest {
	t.Helper()
	if err := f.arch.EnableManifest(); err != nil {
		t.Fatal(err)
	}
	return f.arch.Manifest()
}

func TestExpireWritesManifest(t *testing.T) {
	f := newFixture(t, 24*time.Hour)
	man := f.enableManifest(t)
	reg := metrics.NewRegistry()
	f.arch.Metrics = NewMetrics(reg)

	old1 := t0.Add(-72 * time.Hour)
	old2 := t0.Add(-48 * time.Hour)
	id1 := f.stage(t, "F/a.csv", old1)
	id2 := f.stage(t, "F/b.csv", old2)
	f.stage(t, "F/new.csv", t0.Add(-time.Hour))

	if n, err := f.arch.ExpireOnce(); err != nil || n != 2 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if !man.Has(id1) || !man.Has(id2) {
		t.Fatal("expired ids missing from manifest")
	}
	if man.Len() != 2 {
		t.Fatalf("manifest len = %d, want 2", man.Len())
	}

	// Range over the full horizon sees both, ordered by key time.
	es, err := man.Range("F", t0.Add(-100*time.Hour), t0)
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 2 || es[0].ID != id1 || es[1].ID != id2 {
		t.Fatalf("range = %+v", es)
	}
	// A range missing the older day file only sees the newer entry.
	es, err = man.Range("F", t0.Add(-60*time.Hour), t0)
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 1 || es[0].ID != id2 {
		t.Fatalf("partial range = %+v", es)
	}
	// Day partitioning: two distinct UTC days → two day files.
	d1 := filepath.Join(f.archRoot, ManifestDir, "F", old1.UTC().Format("20060102")+".jsonl")
	d2 := filepath.Join(f.archRoot, ManifestDir, "F", old2.UTC().Format("20060102")+".jsonl")
	for _, p := range []string{d1, d2} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("day file %s missing: %v", p, err)
		}
	}
	if got := f.arch.Metrics.Expired.Value(); got != 2 {
		t.Fatalf("expired counter = %d", got)
	}
	if got := f.arch.Metrics.ManifestEntries.Value(); got != 2 {
		t.Fatalf("manifest counter = %d", got)
	}
	if f.arch.Metrics.Bytes.Value() == 0 {
		t.Fatal("bytes counter stayed zero")
	}
}

func TestManifestReopenAndTornTail(t *testing.T) {
	f := newFixture(t, 24*time.Hour)
	man := f.enableManifest(t)
	id := f.stage(t, "F/a.csv", t0.Add(-48*time.Hour))
	if _, err := f.arch.ExpireOnce(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail of the day file, as a power cut would.
	day := filepath.Join(f.archRoot, ManifestDir, "F", t0.Add(-48*time.Hour).UTC().Format("20060102")+".jsonl")
	data, err := os.ReadFile(day)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte{}, data...), []byte(`{"id":999,"na`)...)
	if err := os.WriteFile(day, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	reopened, err := OpenManifest(diskfault.OS(), filepath.Join(f.archRoot, ManifestDir))
	if err != nil {
		t.Fatal(err)
	}
	if !reopened.Has(id) || reopened.Has(999) {
		t.Fatalf("reopen: has(%d)=%v has(999)=%v", id, reopened.Has(id), reopened.Has(999))
	}
	// Appending after a torn tail must not corrupt the new record.
	if err := reopened.Append([]Entry{{ID: 7, Feed: "F", StagedPath: "F/c.csv", Arrived: t0.Add(-47 * time.Hour)}}); err != nil {
		t.Fatal(err)
	}
	es, err := reopened.Range("F", t0.Add(-72*time.Hour), t0)
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 2 {
		t.Fatalf("range after torn-tail append = %+v", es)
	}
	if man.Len() != 1 {
		t.Fatalf("original handle mutated: %d", man.Len())
	}
}

func TestManifestAppendIdempotent(t *testing.T) {
	f := newFixture(t, time.Hour)
	man := f.enableManifest(t)
	e := Entry{ID: 1, Feed: "F", StagedPath: "F/a.csv", Arrived: t0}
	if err := man.Append([]Entry{e}); err != nil {
		t.Fatal(err)
	}
	if err := man.Append([]Entry{e}); err != nil {
		t.Fatal(err)
	}
	es, err := man.Range("F", t0.Add(-time.Hour), t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 1 {
		t.Fatalf("duplicate append visible: %+v", es)
	}
}

func TestManifestMultiFeedEntries(t *testing.T) {
	f := newFixture(t, time.Hour)
	man := f.enableManifest(t)
	meta := receipts.FileMeta{
		ID: 42, Name: "x.csv", StagedPath: "SNMP/x.csv",
		Feeds: []string{"SNMP/BPS", "SNMP/ALL"}, Size: 9, Arrived: t0,
	}
	if err := man.Append(EntriesFor(meta, t0)); err != nil {
		t.Fatal(err)
	}
	for _, feed := range meta.Feeds {
		es, err := man.Range(feed, t0.Add(-time.Minute), t0.Add(time.Minute))
		if err != nil || len(es) != 1 {
			t.Fatalf("feed %s: es=%v err=%v", feed, es, err)
		}
		if got := es[0].Meta(); got.ID != 42 || len(got.Feeds) != 2 {
			t.Fatalf("meta round-trip = %+v", got)
		}
	}
}

func TestReconcileManifestRepairsMissingEntries(t *testing.T) {
	f := newFixture(t, 24*time.Hour)
	f.enableManifest(t)
	id := f.stage(t, "F/lost.csv", t0.Add(-48*time.Hour))
	if _, err := f.arch.ExpireOnce(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash window: archived file on disk, manifest lost.
	if err := os.RemoveAll(filepath.Join(f.archRoot, ManifestDir)); err != nil {
		t.Fatal(err)
	}
	if err := f.arch.EnableManifest(); err != nil {
		t.Fatal(err)
	}
	lookup := func(staged string) (receipts.FileMeta, bool) {
		for _, m := range f.store.AllFiles() {
			if m.StagedPath == staged {
				return m, true
			}
		}
		return receipts.FileMeta{}, false
	}
	n, err := f.arch.ReconcileManifest(lookup)
	if err != nil || n != 1 {
		t.Fatalf("repaired=%d err=%v", n, err)
	}
	if !f.arch.Manifest().Has(id) {
		t.Fatal("entry not repaired")
	}
	// Second pass finds nothing (and skips dot-dirs / receipts-backup).
	if err := f.arch.BackupReceipts(f.dbDir); err != nil {
		t.Fatal(err)
	}
	n, err = f.arch.ReconcileManifest(lookup)
	if err != nil || n != 0 {
		t.Fatalf("second pass repaired=%d err=%v", n, err)
	}
}

func TestNoArchiveRootCountsAndAlarms(t *testing.T) {
	root := t.TempDir()
	store, err := receipts.Open(filepath.Join(root, "db"), receipts.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	staging := filepath.Join(root, "staging")
	os.MkdirAll(staging, 0o755)
	arch, err := New(store, clock.NewSimulated(t0), staging, "", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	arch.Metrics = NewMetrics(reg)
	var alarms []string
	arch.Alarm = func(msg string) { alarms = append(alarms, msg) }
	for _, name := range []string{"a.csv", "b.csv"} {
		os.WriteFile(filepath.Join(staging, name), []byte("d"), 0o644)
		store.RecordArrival(receipts.FileMeta{Name: name, StagedPath: name, Feeds: []string{"F"}, DataTime: t0.Add(-2 * time.Hour), Arrived: t0})
	}
	if _, err := arch.ExpireOnce(); err != nil {
		t.Fatal(err)
	}
	if got := arch.Metrics.Deleted.Value(); got != 2 {
		t.Fatalf("deleted counter = %d, want 2", got)
	}
	if len(alarms) != 1 || !strings.Contains(alarms[0], "DELETED") {
		t.Fatalf("alarms = %v (want exactly one)", alarms)
	}
}

// A temp a crash left in the archive tree (a cut-short copy) is never
// indexed as archive history, whatever the lookup answers for it, and
// is never backed up as receipts.
func TestReconcileManifestSkipsTemps(t *testing.T) {
	f := newFixture(t, 24*time.Hour)
	f.enableManifest(t)
	tmp := filepath.Join(f.archRoot, "F", diskfault.TmpPrefix+"lost.csv")
	if err := os.MkdirAll(filepath.Dir(tmp), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tmp, []byte("half"), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := f.arch.ReconcileManifest(func(staged string) (receipts.FileMeta, bool) {
		return receipts.FileMeta{ID: 9, StagedPath: staged, Feeds: []string{"F"}, Arrived: t0}, true
	})
	if err != nil || n != 0 || f.arch.Manifest().Has(9) {
		t.Fatalf("repaired=%d err=%v, indexed=%v: a temp entered the manifest", n, err, f.arch.Manifest().Has(9))
	}
	if err := os.WriteFile(filepath.Join(f.dbDir, diskfault.TmpPrefix+"ckpt"), []byte("half"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := f.arch.BackupReceipts(f.dbDir); err != nil {
		t.Fatal(err)
	}
	backup, err := os.ReadDir(filepath.Join(f.archRoot, "receipts-backup"))
	if err != nil || len(backup) == 0 {
		t.Fatalf("backup: %v, %v", backup, err)
	}
	for _, e := range backup {
		if strings.HasPrefix(e.Name(), diskfault.TmpPrefix) {
			t.Fatalf("backup copied the temp %s", e.Name())
		}
	}
}
