// Package diskfault is the disk-level analog of internal/netsim: a
// filesystem seam threaded through Bistro's storage path (receipt WAL
// and checkpoints, staging promotion, archive moves, landing deposits)
// so that real code and tests share one I/O surface, plus a
// fault-injecting implementation driven by a seeded RNG.
//
// The fault model covers the failure classes a data feed manager
// actually meets on disks: injected write/sync/rename errors, ENOSPC
// with partial writes, and — the interesting one — a simulated power
// cut. In power-cut mode the Faulty filesystem journals every
// not-yet-durable state change (data beyond the last fsync, creates,
// renames and removes whose parent directory was never fsynced) and,
// on Crash, rolls the real on-disk tree back to exactly the durable
// prefix, optionally tearing the unsynced tail of the last written
// block. Code that survives this model survives a real power cut on a
// POSIX filesystem with strict fsync semantics.
//
// Model simplifications (documented, deliberate):
//   - fsync of a file makes its *data* durable; its directory entry
//     needs a separate SyncDir of the parent (strict POSIX — ext4's
//     auto_da_alloc leniency is NOT assumed, so missing dir syncs are
//     caught).
//   - a rename becomes durable when the destination's parent directory
//     is synced.
//   - truncation is applied immediately and is not rolled back (every
//     truncate in the storage path is followed by an fsync on the same
//     handle before anything depends on it).
//   - directory creation survives crashes (MkdirAll is not journaled).
package diskfault

import (
	"hash/crc32"
	"io"
	"os"
	"sync"
	"syscall"
)

// File is the file-handle surface Bistro's storage path needs;
// *os.File satisfies it.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	Truncate(size int64) error
	Sync() error
	Name() string
}

// FS is the filesystem abstraction. All paths are interpreted like the
// corresponding os functions.
type FS interface {
	// OpenFile is the generalized open.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Open opens for reading.
	Open(name string) (File, error)
	// Create truncates or creates for writing.
	Create(name string) (File, error)
	// CreateTemp creates a fresh temp file in dir (pattern as in
	// os.CreateTemp).
	CreateTemp(dir, pattern string) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// MkdirAll creates a directory tree.
	MkdirAll(path string, perm os.FileMode) error
	// Stat describes a file.
	Stat(name string) (os.FileInfo, error)
	// SyncDir fsyncs a directory, making its entries (creates, renames,
	// removes) durable.
	SyncDir(dir string) error
}

// osFS is the passthrough implementation backed by the real
// filesystem.
type osFS struct{}

// OS returns the real filesystem.
func OS() FS { return osFS{} }

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) Open(name string) (File, error)   { return os.Open(name) }
func (osFS) Create(name string) (File, error) { return os.Create(name) }
func (osFS) CreateTemp(dir, pattern string) (File, error) {
	return os.CreateTemp(dir, pattern)
}
func (osFS) Rename(oldpath, newpath string) error         { return rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) Stat(name string) (os.FileInfo, error)        { return os.Stat(name) }

// rename is rename(2) itself. os.Rename first Lstats newpath to refuse
// replacing a directory, an extra syscall and two allocations on every
// staging, landing and checkpoint rename; no caller renames onto a
// directory. The error is an *os.LinkError as os.Rename's, so
// errors.Is(err, fs.ErrNotExist) still holds.
func rename(oldpath, newpath string) error {
	for {
		err := syscall.Rename(oldpath, newpath)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: err}
		}
		return nil
	}
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// nosyncFS wraps an FS making every Sync and SyncDir a no-op — for
// tests and simulations where durability is irrelevant and fsync cost
// is not.
type nosyncFS struct{ FS }

// NoSync returns fsys with all syncs disabled.
func NoSync(fsys FS) FS { return nosyncFS{fsys} }

func (n nosyncFS) SyncDir(string) error { return nil }

func (n nosyncFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := n.FS.OpenFile(name, flag, perm)
	return nosyncFile{f}, err
}
func (n nosyncFS) Open(name string) (File, error) {
	f, err := n.FS.Open(name)
	return nosyncFile{f}, err
}
func (n nosyncFS) Create(name string) (File, error) {
	f, err := n.FS.Create(name)
	return nosyncFile{f}, err
}
func (n nosyncFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := n.FS.CreateTemp(dir, pattern)
	return nosyncFile{f}, err
}

type nosyncFile struct{ File }

func (f nosyncFile) Sync() error { return nil }

// WriteFile writes data to name via fsys (no fsync — callers that need
// durability sync explicitly).
func WriteFile(fsys FS, name string, data []byte, perm os.FileMode) error {
	f, err := fsys.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	_, werr := f.Write(data)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// ReadFile reads the whole of name via fsys. It sizes the read from the
// open handle first (two seeks, no allocation) and reads into buf when
// buf's capacity holds the file and one spare byte, else into one new
// allocation instead of io.ReadAll's doubling series; a file whose size
// the seeks cannot tell is read with io.ReadAll. buf may be nil; the
// result may share its memory.
func ReadFile(fsys FS, name string, buf []byte) ([]byte, error) {
	f, err := fsys.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil || size == 0 { // either way still at the start
		return io.ReadAll(f)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	// One spare byte lets the read that finds EOF fit without growing.
	data := buf[:0]
	if int64(cap(data)) < size+1 {
		data = make([]byte, 0, size+1)
	}
	for {
		n, err := f.Read(data[len(data):cap(data)])
		data = data[:len(data)+n]
		if err == io.EOF {
			return data, nil
		}
		if err != nil {
			return data, err
		}
		if len(data) == cap(data) { // the file grew since it was sized
			data = append(data, 0)[:len(data)]
		}
	}
}

// copyBufs holds the buffers Copy moves bytes through.
var copyBufs = sync.Pool{New: func() any { return new([32 << 10]byte) }}

// Copy copies src to dst until EOF through a pooled 32 KiB buffer. It
// never hands the copy to src's WriteTo or dst's ReadFrom the way
// io.Copy does: an *os.File's WriteTo falls back to a fresh 32 KiB
// buffer (and two wrapper objects) for any destination but a socket,
// which every staged, checksummed or archived file used to pay.
func Copy(dst io.Writer, src io.Reader) (int64, error) {
	buf := copyBufs.Get().(*[32 << 10]byte)
	defer copyBufs.Put(buf)
	return copyBuf(dst, src, buf[:], nil)
}

// socketBufs holds the buffers CopySocket and CopyCRC move bytes
// through. They are larger than Copy's because one end of these copies
// is a socket (an upload streaming into landing, a staged file pushed
// to a subscriber): each chunk costs a read, a write and a wake-up of
// the peer, and a 1 MiB upload took 1.2 ms through 32 KiB chunks on
// loopback against 0.7 ms through 256 KiB ones, as fast as reading it
// into memory first.
var socketBufs = sync.Pool{New: func() any { return new([256 << 10]byte) }}

// CopySocket is Copy through a pooled 256 KiB buffer, for a copy with
// a socket at one end.
func CopySocket(dst io.Writer, src io.Reader) (int64, error) {
	buf := socketBufs.Get().(*[256 << 10]byte)
	defer socketBufs.Put(buf)
	return copyBuf(dst, src, buf[:], nil)
}

// CopyCRC is CopySocket that also returns the IEEE CRC32 of the bytes
// it wrote, computed on the way.
func CopyCRC(dst io.Writer, src io.Reader) (n int64, crc uint32, err error) {
	buf := socketBufs.Get().(*[256 << 10]byte)
	defer socketBufs.Put(buf)
	n, err = copyBuf(dst, src, buf[:], &crc)
	return n, crc, err
}

// copyBuf copies src to dst through buf, updating *crc (when non-nil)
// with every byte it writes.
func copyBuf(dst io.Writer, src io.Reader, buf []byte, crc *uint32) (int64, error) {
	var n int64
	for {
		nr, rerr := src.Read(buf)
		if nr > 0 {
			nw, werr := dst.Write(buf[:nr])
			n += int64(nw)
			if crc != nil {
				*crc = crc32.Update(*crc, crc32.IEEETable, buf[:nw])
			}
			if werr != nil {
				return n, werr
			}
			if nw != nr {
				return n, io.ErrShortWrite
			}
		}
		if rerr == io.EOF {
			return n, nil
		}
		if rerr != nil {
			return n, rerr
		}
	}
}
