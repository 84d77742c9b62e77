package diskfault

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"path/filepath"
	"strings"
)

// Writer is the one way a file other than an append log becomes
// durable: staged outputs, receipt checkpoints, archive copies and
// every file a standby is shipped. Create opens a TmpPrefix temp in the
// destination's directory (or an ancestor); Write appends, counting the
// size and IEEE CRC32 of the bytes that reach the file; Commit makes
// them durable at their final name (fsync, close, rename, directory
// fsync) and Abort discards them. Without both fsyncs a power cut can
// leave whatever points at the destination (a receipt, a replication
// ack) referencing a truncated or missing file; a crash before Commit
// leaves only the temp, which start-up sweeps (RemoveTemps).
type Writer struct {
	fsys   FS
	dir    string
	tmp    File
	size   int64
	crc    uint32
	closed bool
}

// Create starts a Writer in dir, creating the directory as needed. The
// Writer is returned by value so a caller can keep it inside its own
// state without a second allocation; use it through a pointer.
func Create(fsys FS, dir string) (Writer, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return Writer{}, fmt.Errorf("mkdir: %w", err)
	}
	tmp, err := fsys.CreateTemp(dir, TmpPrefix+"*")
	if err != nil {
		return Writer{}, fmt.Errorf("temp file: %w", err)
	}
	return Writer{fsys: fsys, dir: dir, tmp: tmp}, nil
}

// Write appends b to the temp file.
func (w *Writer) Write(b []byte) (int, error) {
	n, err := w.tmp.Write(b)
	w.crc = crc32.Update(w.crc, crc32.IEEETable, b[:n])
	w.size += int64(n)
	return n, err
}

// Size is the number of bytes written so far.
func (w *Writer) Size() int64 { return w.size }

// CRC is the IEEE CRC32 of the bytes written so far.
func (w *Writer) CRC() uint32 { return w.crc }

// Name is the temp file's path, readable after CloseForRead.
func (w *Writer) Name() string { return w.tmp.Name() }

// CloseForRead finishes the content without making it durable or
// renaming it, for bytes that feed another stage instead of landing
// anywhere. Abort still removes the temp file.
func (w *Writer) CloseForRead() error {
	if w.closed {
		return nil
	}
	w.closed = true
	return w.tmp.Close()
}

// Commit makes the content durable at dst: fsync, close, rename,
// directory fsync. dst's directory is created only when it is not the
// one the temp file was made in. A failure before the rename removes
// the temp.
func (w *Writer) Commit(dst string) error {
	if err := w.tmp.Sync(); err != nil {
		w.Abort()
		return fmt.Errorf("sync temp: %w", err)
	}
	w.closed = true
	if err := w.tmp.Close(); err != nil {
		w.Abort()
		return fmt.Errorf("close temp: %w", err)
	}
	dir := filepath.Dir(dst)
	if dir != w.dir {
		if err := w.fsys.MkdirAll(dir, 0o755); err != nil {
			w.Abort()
			return fmt.Errorf("mkdir: %w", err)
		}
	}
	if err := w.fsys.Rename(w.tmp.Name(), dst); err != nil {
		w.Abort()
		return fmt.Errorf("rename: %w", err)
	}
	if err := w.fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("sync dir: %w", err)
	}
	return nil
}

// Abort discards the content. It is idempotent and safe after Commit,
// which leaves nothing at the temp path.
func (w *Writer) Abort() {
	if !w.closed {
		w.closed = true
		w.tmp.Close()
	}
	w.fsys.Remove(w.tmp.Name())
}

// CopyDurable makes a durable copy of src at dst through a Writer.
func CopyDurable(fsys FS, src, dst string) error {
	in, err := fsys.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	w, err := Create(fsys, filepath.Dir(dst))
	if err != nil {
		return err
	}
	if _, err := Copy(&w, in); err != nil {
		w.Abort()
		return err
	}
	return w.Commit(dst)
}

// MoveDurable moves src to dst so that the file exists durably at dst
// before it leaves src: a rename followed by an fsync of dst's
// directory, or, where the rename fails (across filesystems), a
// CopyDurable and then the removal of src. A missing src is returned
// as the rename's fs.ErrNotExist error.
func MoveDurable(fsys FS, src, dst string) error {
	dir := filepath.Dir(dst)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	err := fsys.Rename(src, dst)
	if err == nil {
		return fsys.SyncDir(dir)
	}
	if errors.Is(err, fs.ErrNotExist) {
		return err
	}
	if err := CopyDurable(fsys, src, dst); err != nil {
		return err
	}
	return fsys.Remove(src)
}

// RemoveTemps deletes every TmpPrefix file under root (what a crash
// leaves of a Writer or a Receive) and returns how many it removed. It
// lists through the real filesystem, FS having no directory listing.
func RemoveTemps(fsys FS, root string) int {
	removed := 0
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if !d.IsDir() && strings.HasPrefix(d.Name(), TmpPrefix) {
			if fsys.Remove(path) == nil {
				removed++
			}
		}
		return nil
	})
	return removed
}
