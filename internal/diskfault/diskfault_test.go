package diskfault

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func readAll(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return data
}

// writeDurable makes data durable at name through a Writer.
func writeDurable(fsys FS, name string, data []byte) error {
	w, err := Create(fsys, filepath.Dir(name))
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		w.Abort()
		return err
	}
	return w.Commit(name)
}

func TestOSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fsys := OS()
	p := filepath.Join(dir, "a.txt")
	if err := writeDurable(fsys, p, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(p)
	if err != nil || string(got) != "hello" {
		t.Fatalf("read back %q, %v", got, err)
	}
	if err := fsys.Rename(p, filepath.Join(dir, "b.txt")); err != nil {
		t.Fatal(err)
	}
	if _, err := fsys.Stat(filepath.Join(dir, "b.txt")); err != nil {
		t.Fatal(err)
	}
}

// An unsynced write vanishes at the crash; a synced one survives.
func TestPowerCutDiscardsUnsyncedData(t *testing.T) {
	dir := t.TempDir()
	fsys := NewFaulty(OS(), Options{PowerCut: true})
	p := filepath.Join(dir, "wal")
	f, err := fsys.OpenFile(p, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("-volatile")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := fsys.Crash(); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, p); string(got) != "durable" {
		t.Fatalf("after crash: %q, want %q", got, "durable")
	}
	if _, err := fsys.Open(p); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash op: %v, want ErrCrashed", err)
	}
}

// A create whose directory was never synced is rolled back entirely.
func TestPowerCutRollsBackUnsyncedCreate(t *testing.T) {
	dir := t.TempDir()
	fsys := NewFaulty(OS(), Options{PowerCut: true})
	p := filepath.Join(dir, "new.txt")
	f, err := fsys.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("data"))
	f.Sync() // data synced, but the dir entry never is
	f.Close()
	if err := fsys.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Fatalf("unsynced create survived crash: %v", err)
	}
}

// The promote idiom (temp + fsync + rename + dir sync) survives; the
// same sequence without the dir sync does not.
func TestPowerCutRenameDurability(t *testing.T) {
	for _, dirSync := range []bool{true, false} {
		dir := t.TempDir()
		fsys := NewFaulty(OS(), Options{PowerCut: true})
		tmp, err := fsys.CreateTemp(dir, ".tmp-*")
		if err != nil {
			t.Fatal(err)
		}
		tmp.Write([]byte("payload"))
		if err := tmp.Sync(); err != nil {
			t.Fatal(err)
		}
		tmpName := tmp.Name()
		tmp.Close()
		dst := filepath.Join(dir, "final.txt")
		if err := fsys.Rename(tmpName, dst); err != nil {
			t.Fatal(err)
		}
		if dirSync {
			if err := fsys.SyncDir(dir); err != nil {
				t.Fatal(err)
			}
		}
		if err := fsys.Crash(); err != nil {
			t.Fatal(err)
		}
		_, err = os.Stat(dst)
		if dirSync && err != nil {
			t.Fatalf("durable rename lost: %v", err)
		}
		if !dirSync {
			if err == nil {
				t.Fatal("non-durable rename survived the crash")
			}
			// The temp file's own dir entry was never synced either, so
			// strict POSIX loses it too: nothing of the promote remains.
			if _, terr := os.Stat(tmpName); terr == nil {
				t.Fatal("unsynced temp create survived the crash")
			}
		}
	}
}

// A rename that overwrote a durable file rolls back to the old
// content when the replacing rename was never made durable.
func TestPowerCutRenameOverwriteRestoresOld(t *testing.T) {
	dir := t.TempDir()
	fsys := NewFaulty(OS(), Options{PowerCut: true})
	dst := filepath.Join(dir, "ckpt")
	if err := writeDurable(fsys, dst, []byte("old-checkpoint")); err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(dir, "ckpt.tmp")
	if err := writeDurable(fsys, src, []byte("new-checkpoint")); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Rename(src, dst); err != nil {
		t.Fatal(err)
	}
	// no SyncDir: the rename is volatile
	if err := fsys.Crash(); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, dst); string(got) != "old-checkpoint" {
		t.Fatalf("after crash: %q, want the pre-rename checkpoint", got)
	}
}

// A non-durable remove can resurrect the file at the crash.
func TestPowerCutRemoveResurrects(t *testing.T) {
	dir := t.TempDir()
	fsys := NewFaulty(OS(), Options{PowerCut: true})
	p := filepath.Join(dir, "landing.csv")
	if err := writeDurable(fsys, p, []byte("rows")); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Remove(p); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Crash(); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, p); string(got) != "rows" {
		t.Fatalf("removed file not resurrected: %q", got)
	}
}

// SetCrashAfter interrupts the n-th mutating operation and everything
// after it.
func TestCrashAfterCountdown(t *testing.T) {
	dir := t.TempDir()
	fsys := NewFaulty(OS(), Options{PowerCut: true})
	p := filepath.Join(dir, "f")
	f, err := fsys.OpenFile(p, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fsys.SetCrashAfter(3)
	if _, err := f.Write([]byte("one")); err != nil { // op 1
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil { // op 2
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("two")); !errors.Is(err, ErrCrashed) { // op 3: the cut
		t.Fatalf("3rd op: %v, want ErrCrashed", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-cut op: %v, want ErrCrashed", err)
	}
	if !fsys.Crashed() {
		t.Fatal("not crashed")
	}
}

// Torn writes keep a garbled prefix of the unsynced tail: length may
// exceed the synced horizon but content beyond it is untrustworthy.
func TestPowerCutTornWrites(t *testing.T) {
	torn := false
	for seed := int64(1); seed < 30 && !torn; seed++ {
		dir := t.TempDir()
		fsys := NewFaulty(OS(), Options{PowerCut: true, TornWrites: true, Seed: seed})
		p := filepath.Join(dir, "wal")
		f, err := fsys.OpenFile(p, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		f.Write([]byte("base"))
		f.Sync()
		fsys.SyncDir(dir)
		f.Write([]byte("unsynced-tail-unsynced-tail"))
		f.Close()
		if err := fsys.Crash(); err != nil {
			t.Fatal(err)
		}
		got := readAll(t, p)
		if len(got) < 4 || string(got[:3]) != "bas" {
			// the garbled byte may land anywhere in the torn region; the
			// synced prefix itself must keep its length
			t.Fatalf("synced prefix truncated: %q", got)
		}
		if len(got) > 4 {
			torn = true
		}
	}
	if !torn {
		t.Fatal("no seed produced a torn tail")
	}
}

// A lying sync reports success but leaves the data volatile — the
// deliberate reintroduction of the non-durable-promote bug.
func TestLieSyncLosesData(t *testing.T) {
	dir := t.TempDir()
	fsys := NewFaulty(OS(), Options{PowerCut: true, LieSyncSubstr: "liar"})
	p := filepath.Join(dir, "liar.dat")
	f, err := fsys.OpenFile(p, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("data"))
	if err := f.Sync(); err != nil {
		t.Fatal(err) // reports success
	}
	f.Close()
	if err := fsys.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Crash(); err != nil {
		t.Fatal(err)
	}
	// The dir entry was made durable by the honest SyncDir... but wait:
	// the create op lives in dir, which contains "liar"? No — the dir
	// itself has no "liar" in its name, so the entry IS durable; only
	// the file's data sync lied, so the content is empty.
	if _, err := os.Stat(p); err == nil {
		if got := readAll(t, p); len(got) != 0 {
			t.Fatalf("lying sync preserved data: %q", got)
		}
	}
}

// Injected errors: ENOSPC yields a partial write; write errors write
// nothing; both are classifiable.
func TestInjectedErrors(t *testing.T) {
	dir := t.TempDir()
	fsys := NewFaulty(OS(), Options{Seed: 7, ENOSPCProb: 1})
	f, err := fsys.OpenFile(filepath.Join(dir, "full"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("0123456789"))
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("want ENOSPC, got %v", err)
	}
	if n >= 10 {
		t.Fatalf("ENOSPC wrote everything (n=%d)", n)
	}
	f.Close()

	fsys2 := NewFaulty(OS(), Options{Seed: 7, WriteErrProb: 1})
	f2, err := fsys2.OpenFile(filepath.Join(dir, "err"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f2.Write([]byte("x")); !errors.Is(err, ErrInjectedWrite) {
		t.Fatalf("want injected write error, got %v", err)
	}
	f2.Close()
	if fsys2.InjectedErrors() == 0 {
		t.Fatal("injection not counted")
	}
}

// NoSync wrapping keeps data but never records durability cost — and
// composes with the seam (sanity for test configurations).
func TestNoSyncWrapper(t *testing.T) {
	dir := t.TempDir()
	fsys := NoSync(OS())
	p := filepath.Join(dir, "x")
	f, err := fsys.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("y"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := fsys.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, p); string(got) != "y" {
		t.Fatalf("data lost: %q", got)
	}
}

// Seek-aware write-frontier tracking: appends after a replay-style
// seek extend the synced horizon correctly.
func TestSeekTracking(t *testing.T) {
	dir := t.TempDir()
	fsys := NewFaulty(OS(), Options{PowerCut: true})
	p := filepath.Join(dir, "wal")
	f, err := fsys.OpenFile(p, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("0123456789"))
	f.Sync()
	fsys.SyncDir(dir)
	// replay-style: seek to start, read, seek to end, append, sync
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	io.ReadFull(f, buf)
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("ABCDE"))
	f.Sync()
	f.Close()
	if err := fsys.Crash(); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, p); string(got) != "0123456789ABCDE" {
		t.Fatalf("synced append lost: %q", got)
	}
}

// ReadSized reads into one buffer of the size it is told: whatever the
// file's size, the data costs one allocation on top of opening and
// closing the handle, or none when the caller's buffer holds it —
// through the fault-injecting wrapper too — and the bytes come back
// exact.
func TestReadSizedAllocatesOnce(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "mib")
	want := make([]byte, 1<<20)
	for i := range want {
		want[i] = byte(i * 7)
	}
	if err := os.WriteFile(p, want, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, fsys := range map[string]FS{"os": OS(), "faulty": NewFaulty(OS(), Options{Seed: 1})} {
		read := func(buf []byte) ([]byte, error) {
			f, err := fsys.Open(p)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			return ReadSized(f, int64(len(want)), buf)
		}
		got, err := read(nil)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: read %d bytes, %v; want the %d written", name, len(got), err, len(want))
		}
		open := testing.AllocsPerRun(20, func() {
			f, err := fsys.Open(p)
			if err != nil {
				t.Fatal(err)
			}
			f.Close()
		})
		fresh := testing.AllocsPerRun(20, func() {
			if _, err := read(nil); err != nil {
				t.Fatal(err)
			}
		})
		if fresh-open != 1 {
			t.Errorf("%s: ReadSized makes %v allocations beyond open+close, want 1", name, fresh-open)
		}
		// A buffer that holds the file (and the spare byte) is read into
		// in place; one a byte short is not.
		buf := make([]byte, 1<<20+1)
		got, err = read(buf)
		if err != nil || !bytes.Equal(got, want) || &got[0] != &buf[0] {
			t.Fatalf("%s: read into a big enough buffer: %d bytes, %v, in place %v", name, len(got), err, &got[0] == &buf[0])
		}
		reuse := testing.AllocsPerRun(20, func() {
			if _, err := read(buf); err != nil {
				t.Fatal(err)
			}
		})
		short := testing.AllocsPerRun(20, func() {
			if _, err := read(buf[: 0 : 1<<20]); err != nil {
				t.Fatal(err)
			}
		})
		if reuse != open || short-open != 1 {
			t.Errorf("%s: ReadSized into a buffer makes %v allocations beyond open+close (want 0), into a short one %v (want 1)",
				name, reuse-open, short-open)
		}
	}
}

// A size that is wrong (the file grew or shrank since it was sized) or
// unknown (negative) still reads the whole file.
func TestReadSizedWrongOrUnknownSize(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "f")
	want := bytes.Repeat([]byte("0123456789"), 5000)
	if err := os.WriteFile(p, want, 0o644); err != nil {
		t.Fatal(err)
	}
	// Unknown, grown since sized, shrunk since sized.
	for _, size := range []int64{-1, 100, int64(len(want)) * 2} {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReadSized(f, size, nil)
		f.Close()
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("size given as %d: read %d bytes, %v; want %d", size, len(got), err, len(want))
		}
	}
	if got, err := ReadSized(bytes.NewReader(nil), 0, nil); err != nil || len(got) != 0 {
		t.Fatalf("empty: read %d bytes, %v", len(got), err)
	}
}
