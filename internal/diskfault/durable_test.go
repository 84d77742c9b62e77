package diskfault

import (
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"syscall"
	"testing"
)

// listFiles returns every file under root, relative and sorted.
func listFiles(t *testing.T, root string) []string {
	t.Helper()
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			rel, _ := filepath.Rel(root, path)
			files = append(files, filepath.ToSlash(rel))
		}
		return nil
	})
	sort.Strings(files)
	return files
}

// A committed Writer survives a power cut at its final name with the
// size and CRC it counted; an aborted one leaves nothing.
func TestWriterCommitAndAbort(t *testing.T) {
	dir := t.TempDir()
	fsys := NewFaulty(OS(), Options{PowerCut: true})
	w, err := Create(fsys, filepath.Join(dir, "a"))
	if err != nil {
		t.Fatal(err)
	}
	for _, part := range []string{"durable ", "content"} {
		if _, err := w.Write([]byte(part)); err != nil {
			t.Fatal(err)
		}
	}
	if w.Size() != 15 || w.CRC() != crc32.ChecksumIEEE([]byte("durable content")) {
		t.Fatalf("size %d, crc %08x", w.Size(), w.CRC())
	}
	if err := w.Commit(filepath.Join(dir, "a", "b", "file")); err != nil {
		t.Fatal(err)
	}
	w.Abort() // after Commit: a no-op

	gone, err := Create(fsys, filepath.Join(dir, "a"))
	if err != nil {
		t.Fatal(err)
	}
	gone.Write([]byte("never"))
	gone.Abort()

	if err := fsys.Crash(); err != nil {
		t.Fatal(err)
	}
	if got := listFiles(t, dir); len(got) != 1 || got[0] != "a/b/file" {
		t.Fatalf("after the crash: %v, want only a/b/file", got)
	}
	if got := readAll(t, filepath.Join(dir, "a", "b", "file")); string(got) != "durable content" {
		t.Fatalf("committed content %q", got)
	}
}

// crossDevice refuses renames out of one directory, as rename(2) does
// across filesystems.
type crossDevice struct {
	FS
	from string
}

func (c crossDevice) Rename(oldpath, newpath string) error {
	if filepath.Dir(oldpath) == c.from {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: syscall.EXDEV}
	}
	return c.FS.Rename(oldpath, newpath)
}

// MoveDurable renames when it can; where the rename fails it copies
// through a Writer, so the destination is durable before the source
// goes. A missing source is reported as such.
func TestMoveDurable(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "staging", "f")
	if err := os.MkdirAll(filepath.Dir(src), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"rename", "copy"} {
		if err := os.WriteFile(src, []byte(name), 0o644); err != nil {
			t.Fatal(err)
		}
		faulty := NewFaulty(OS(), Options{PowerCut: true})
		var fsys FS = faulty
		if name == "copy" {
			fsys = crossDevice{faulty, filepath.Dir(src)}
		}
		dst := filepath.Join(dir, "archive", name, "f")
		if err := MoveDurable(fsys, src, dst); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := faulty.Crash(); err != nil {
			t.Fatal(err)
		}
		if got := readAll(t, dst); string(got) != name {
			t.Fatalf("%s: moved content %q after a crash", name, got)
		}
	}
	if got := listFiles(t, filepath.Join(dir, "archive")); len(got) != 2 {
		t.Fatalf("archive holds %v, want the two moved files and no temp", got)
	}
	if err := MoveDurable(OS(), filepath.Join(dir, "missing"), filepath.Join(dir, "x")); !os.IsNotExist(err) {
		t.Fatalf("moving a missing file: %v, want not-exist", err)
	}
}

// RemoveTemps deletes only TmpPrefix files, at any depth.
func TestRemoveTemps(t *testing.T) {
	root := t.TempDir()
	for _, name := range []string{
		TmpPrefix + "top",
		"a/b/" + TmpPrefix + "deep",
		"a/keep",
		"a/.dotfile",
		"a/b/keep" + TmpPrefix,
	} {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if n := RemoveTemps(OS(), root); n != 2 {
		t.Fatalf("removed %d, want 2", n)
	}
	want := []string{"a/.dotfile", "a/b/keep" + TmpPrefix, "a/keep"}
	if got := listFiles(t, root); !slices.Equal(got, want) {
		t.Fatalf("left %v, want %v", got, want)
	}
	if n := RemoveTemps(OS(), filepath.Join(root, "missing")); n != 0 {
		t.Fatalf("a missing root removed %d", n)
	}
}
