package landing

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"bistro/internal/clock"
	"bistro/internal/diskfault"
)

var t0 = time.Date(2011, 6, 12, 10, 0, 0, 0, time.UTC)

// movingIngest emulates the server: it records the path and removes
// the file (move to staging).
type movingIngest struct {
	dir  string
	mu   sync.Mutex
	seen []string
	fail bool
}

func (m *movingIngest) ingest(rel string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.fail {
		return fmt.Errorf("ingest failure")
	}
	m.seen = append(m.seen, filepath.ToSlash(rel))
	return os.Remove(filepath.Join(m.dir, rel))
}

func (m *movingIngest) got() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, len(m.seen))
	copy(out, m.seen)
	return out
}

func newManager(t *testing.T, interval time.Duration) (*Manager, *movingIngest, string) {
	t.Helper()
	dir := t.TempDir()
	ing := &movingIngest{dir: dir}
	m, err := New(dir, ing.ingest, clock.NewSimulated(t0), interval)
	if err != nil {
		t.Fatal(err)
	}
	return m, ing, dir
}

func TestDeposit(t *testing.T) {
	m, ing, dir := newManager(t, 0)
	if err := m.Deposit("BPS_poller1.csv", strings.NewReader("a,b\n"), crc32.ChecksumIEEE([]byte("a,b\n"))); err != nil {
		t.Fatal(err)
	}
	if got := ing.got(); len(got) != 1 || got[0] != "BPS_poller1.csv" {
		t.Fatalf("ingested = %v", got)
	}
	// The ingest moved the file out; landing stays empty.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 0 {
		t.Fatalf("landing not empty: %v", entries)
	}
}

func TestDepositNested(t *testing.T) {
	m, ing, _ := newManager(t, 0)
	if err := m.DepositUnchecked("2010/09/25/f.csv", strings.NewReader("x")); err != nil {
		t.Fatal(err)
	}
	if got := ing.got(); len(got) != 1 || got[0] != "2010/09/25/f.csv" {
		t.Fatalf("ingested = %v", got)
	}
}

func TestPathEscapeRejected(t *testing.T) {
	m, _, _ := newManager(t, 0)
	for _, p := range []string{"../evil", "/abs/path", "", "a/../../evil"} {
		if err := m.DepositUnchecked(p, strings.NewReader("x")); err == nil {
			t.Errorf("Deposit(%q) accepted", p)
		}
		if err := m.FileReady(p); err == nil {
			t.Errorf("FileReady(%q) accepted", p)
		}
	}
}

// landingFiles lists every file under dir, temps included.
func landingFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			rel, _ := filepath.Rel(dir, path)
			out = append(out, filepath.ToSlash(rel))
		}
		return nil
	})
	return out
}

// failingReader yields some bytes and then a read error, as a
// connection that drops mid-payload does.
type failingReader struct{ sent bool }

var errDropped = errors.New("connection dropped")

func (r *failingReader) Read(p []byte) (int, error) {
	if r.sent {
		return 0, errDropped
	}
	r.sent = true
	return copy(p, "half a file"), nil
}

// TestDepositRefusalLeavesNothing: content that fails its CRC, and a
// read that fails mid-copy, neither land nor ingest nor leave a temp.
func TestDepositRefusalLeavesNothing(t *testing.T) {
	m, ing, dir := newManager(t, 0)
	data := []byte("corrupted in flight\n")
	if err := m.Deposit("a/f.csv", strings.NewReader(string(data)), crc32.ChecksumIEEE(data)^1); !errors.Is(err, diskfault.ErrChecksum) {
		t.Fatalf("bad CRC: err = %v, want ErrChecksum", err)
	}
	if err := m.DepositUnchecked("g.csv", &failingReader{}); !errors.Is(err, errDropped) {
		t.Fatalf("failed read: err = %v, want the read error wrapped", err)
	}
	if got := ing.got(); len(got) != 0 {
		t.Fatalf("ingested %v", got)
	}
	if files := landingFiles(t, dir); len(files) != 0 {
		t.Fatalf("landing holds %v", files)
	}
}

// TestDepositTempNames: a deposit writes diskfault.TmpPrefix+name beside its
// final name and renames it there; when that temp is taken (an
// overlapping deposit of the same name) it writes a temp of its own.
func TestDepositTempNames(t *testing.T) {
	m, _, dir := newManager(t, 0)
	var seen []string
	m.ingest = func(rel string) error {
		seen = append(seen, landingFiles(t, dir)...)
		return os.Remove(filepath.Join(dir, rel))
	}
	inFlight := filepath.Join(dir, "sub", diskfault.TmpPrefix+"f.csv")
	r := readFunc(func(p []byte) (int, error) {
		files := landingFiles(t, dir)
		if len(files) != 1 || files[0] != "sub/"+diskfault.TmpPrefix+"f.csv" {
			t.Errorf("mid-copy landing holds %v, want only the temp", files)
		}
		return 0, io.EOF
	})
	if err := m.DepositUnchecked("sub/f.csv", r); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0] != "sub/f.csv" {
		t.Fatalf("at ingest landing held %v, want the final name only", seen)
	}
	if err := os.WriteFile(inFlight, []byte("another upload's bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	seen = nil
	if err := m.DepositUnchecked("sub/f.csv", strings.NewReader("mine")); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0] != "sub/"+diskfault.TmpPrefix+"f.csv" || seen[1] != "sub/f.csv" {
		t.Fatalf("at ingest landing held %v, want the other temp untouched and the final name", seen)
	}
	if got, _ := os.ReadFile(inFlight); string(got) != "another upload's bytes" {
		t.Fatalf("the in-flight temp was overwritten: %q", got)
	}
}

type readFunc func([]byte) (int, error)

func (f readFunc) Read(p []byte) (int, error) { return f(p) }

func TestFileReady(t *testing.T) {
	m, ing, dir := newManager(t, 0)
	// Source deposits directly (shared fs), then notifies.
	if err := os.WriteFile(filepath.Join(dir, "f.csv"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := m.FileReady("f.csv"); err != nil {
		t.Fatal(err)
	}
	if got := ing.got(); len(got) != 1 {
		t.Fatalf("ingested = %v", got)
	}
	// Announcing a missing file errors.
	if err := m.FileReady("nope.csv"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestScanOnce(t *testing.T) {
	m, ing, dir := newManager(t, 0)
	os.WriteFile(filepath.Join(dir, "a.csv"), []byte("1"), 0o644)
	os.MkdirAll(filepath.Join(dir, "sub"), 0o755)
	os.WriteFile(filepath.Join(dir, "sub", "b.csv"), []byte("2"), 0o644)
	os.WriteFile(filepath.Join(dir, ".partial"), []byte("ignore"), 0o644)

	n, err := m.ScanOnce()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("scanned = %d, want 2", n)
	}
	got := ing.got()
	if len(got) != 2 {
		t.Fatalf("ingested = %v", got)
	}
	// Dotfile untouched.
	if _, err := os.Stat(filepath.Join(dir, ".partial")); err != nil {
		t.Fatal("dotfile removed")
	}
	scans, files := m.ScanStats()
	if scans != 1 || files != 2 {
		t.Fatalf("stats = %d,%d", scans, files)
	}
}

func TestScanOnceReportsIngestErrors(t *testing.T) {
	m, ing, dir := newManager(t, 0)
	ing.fail = true
	os.WriteFile(filepath.Join(dir, "a.csv"), []byte("1"), 0o644)
	n, err := m.ScanOnce()
	if n != 0 || err == nil {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

func TestScannerLoop(t *testing.T) {
	dir := t.TempDir()
	ing := &movingIngest{dir: dir}
	clk := clock.NewSimulated(t0)
	m, err := New(dir, ing.ingest, clk, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer m.Stop()

	os.WriteFile(filepath.Join(dir, "late.csv"), []byte("x"), 0o644)
	// Keep advancing: the scanner arms its timer asynchronously, so a
	// single advance can race timer creation.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		clk.Advance(time.Minute)
		if len(ing.got()) == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if got := ing.got(); len(got) != 1 || got[0] != "late.csv" {
		t.Fatalf("ingested = %v", got)
	}
	m.Stop()
	m.Stop() // idempotent
}

func TestStartWithoutIntervalIsNoop(t *testing.T) {
	m, _, _ := newManager(t, 0)
	m.Start()
	m.Stop()
}
