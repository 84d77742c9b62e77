//go:build linux && (amd64 || arm64)

package diskfault

import (
	"errors"
	"io"
	"math/rand/v2"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// osFS's path calls on Linux are raw *at syscalls with the path copied
// into a stack array, and an open returns an *osFile. The os package
// makes a C string per path, builds each opened file as two objects
// through an fcntl, an O_NONBLOCK/epoll round trip that a regular file
// fails and a finalizer, and Stats before MkdirAll. Errors are the os
// package's *os.PathError and *os.LinkError around the errno.

const (
	atFDCWD     = ^uintptr(99) // AT_FDCWD, -100
	atRemoveDir = 0x200        // AT_REMOVEDIR
)

// cpath holds one NUL-terminated path argument on the caller's stack.
type cpath [512]byte

// ptr returns name NUL-terminated, in p when it fits. A longer name,
// or one holding a NUL, goes through syscall.BytePtrFromString, which
// allocates or fails with EINVAL as the os package would.
func (p *cpath) ptr(name string) (*byte, error) {
	if len(name) < len(p) && strings.IndexByte(name, 0) < 0 {
		copy(p[:], name)
		p[len(name)] = 0
		return &p[0], nil
	}
	return syscall.BytePtrFromString(name)
}

// at issues trap(AT_FDCWD, p, a2, a3), retrying EINTR as the os
// package does.
func at(trap uintptr, p *byte, a2, a3 uintptr) (int, error) {
	for {
		r, _, e := syscall.Syscall6(trap, atFDCWD, uintptr(unsafe.Pointer(p)), a2, a3, 0, 0)
		if e == 0 {
			return int(r), nil
		}
		if e != syscall.EINTR {
			return -1, e
		}
	}
}

// open is openat(2) on name with O_CLOEXEC always set.
func open(name string, flag int, mode uint32) (int, error) {
	var buf cpath
	p, err := buf.ptr(name)
	fd := -1
	if err == nil {
		fd, err = at(syscall.SYS_OPENAT, p, uintptr(flag|syscall.O_CLOEXEC|syscall.O_LARGEFILE), uintptr(mode))
	}
	if err != nil {
		return -1, &os.PathError{Op: "open", Path: name, Err: err}
	}
	return fd, nil
}

// OpenFile returns the descriptor as an *osFile; the file is blocking,
// as os.OpenFile leaves a regular file. Only perm's permission bits are
// used: no caller asks for setuid, setgid or sticky.
func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	fd, err := open(name, flag, uint32(perm.Perm()))
	if err != nil {
		return nil, err
	}
	return &osFile{fd: fd, name: name}, nil
}

func (fsys osFS) Open(name string) (File, error) { return fsys.OpenFile(name, os.O_RDONLY, 0) }

func (fsys osFS) Create(name string) (File, error) {
	return fsys.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o666)
}

var errPatternHasSeparator = errors.New("pattern contains path separator")

// CreateTemp is os.CreateTemp with the file's one name built on the
// stack: the same pattern rules, O_EXCL retries and 0600 mode.
func (fsys osFS) CreateTemp(dir, pattern string) (File, error) {
	if dir == "" {
		dir = os.TempDir()
	}
	if strings.IndexByte(pattern, os.PathSeparator) >= 0 {
		return nil, &os.PathError{Op: "createtemp", Path: pattern, Err: errPatternHasSeparator}
	}
	prefix, suffix := pattern, ""
	if i := strings.LastIndexByte(pattern, '*'); i >= 0 {
		prefix, suffix = pattern[:i], pattern[i+1:]
	}
	sep := dir[len(dir)-1] != os.PathSeparator
	for try := 0; try < 10000; try++ {
		var nb cpath
		b := append(nb[:0], dir...)
		if sep {
			b = append(b, os.PathSeparator)
		}
		b = strconv.AppendUint(append(b, prefix...), uint64(rand.Uint32()), 10)
		f, err := fsys.OpenFile(string(append(b, suffix...)), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
		if !errors.Is(err, os.ErrExist) {
			return f, err
		}
	}
	if sep {
		dir += string(os.PathSeparator)
	}
	return nil, &os.PathError{Op: "createtemp", Path: dir + prefix + "*" + suffix, Err: os.ErrExist}
}

// Rename is renameat(2) itself. os.Rename first Lstats newpath to
// refuse replacing a directory, an extra syscall on every staging,
// landing and checkpoint rename; no caller renames onto a directory.
func (osFS) Rename(oldpath, newpath string) error {
	var ob, nb cpath
	op, err := ob.ptr(oldpath)
	np, nerr := nb.ptr(newpath)
	if err == nil {
		err = nerr
	}
	for err == nil {
		_, _, e := syscall.Syscall6(syscall.SYS_RENAMEAT, atFDCWD, uintptr(unsafe.Pointer(op)),
			atFDCWD, uintptr(unsafe.Pointer(np)), 0, 0)
		if e == 0 {
			return nil
		}
		if e != syscall.EINTR {
			err = e
		}
	}
	return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: err}
}

// Remove is os.Remove: unlink, else rmdir, and the rmdir error only
// when it is not ENOTDIR (rmdir of a file says ENOTDIR, so the unlink
// error is the real one).
func (osFS) Remove(name string) error {
	var buf cpath
	p, err := buf.ptr(name)
	if err == nil {
		if _, err = at(syscall.SYS_UNLINKAT, p, 0, 0); err == nil {
			return nil
		}
		_, rerr := at(syscall.SYS_UNLINKAT, p, atRemoveDir, 0)
		if rerr == nil {
			return nil
		}
		if rerr != syscall.ENOTDIR {
			err = rerr
		}
	}
	return &os.PathError{Op: "remove", Path: name, Err: err}
}

// MkdirAll returns at once for an existing directory and leaves the
// rest (creating, refusing a file with ENOTDIR, every error) to
// os.MkdirAll.
func (osFS) MkdirAll(path string, perm os.FileMode) error {
	var buf cpath
	var st syscall.Stat_t
	if p, err := buf.ptr(path); err == nil {
		_, _, e := syscall.Syscall6(sysFstatat, atFDCWD, uintptr(unsafe.Pointer(p)), uintptr(unsafe.Pointer(&st)), 0, 0, 0)
		if e == 0 && st.Mode&syscall.S_IFMT == syscall.S_IFDIR {
			return nil
		}
	}
	return os.MkdirAll(path, perm)
}

// SyncDir opens dir, fsyncs it and closes it with no *os.File.
func (osFS) SyncDir(dir string) error {
	fd, err := open(dir, syscall.O_RDONLY|syscall.O_DIRECTORY, 0)
	if err != nil {
		return err
	}
	err = syscall.Fsync(fd)
	for err == syscall.EINTR {
		err = syscall.Fsync(fd)
	}
	cerr := syscall.Close(fd)
	if err != nil {
		return &os.PathError{Op: "sync", Path: dir, Err: err}
	}
	if cerr != nil {
		return &os.PathError{Op: "close", Path: dir, Err: cerr}
	}
	return nil
}

// osFile is the File an OS() open returns: one object holding the
// descriptor and the name, where os.NewFile makes two. Its methods are
// *os.File's for a blocking file: each retries EINTR and fails as the
// os package does, with an *os.PathError around the errno, io.EOF, or
// os.ErrClosed once Close has run. It has no finalizer: a file nobody
// closes keeps its descriptor until the process exits.
//
// Close keeps *os.File's guarantee that a call still running keeps the
// descriptor: state counts the calls in flight in steps of two, and
// Close sets its low bit. Close releases the descriptor itself only
// when no call holds it, else the last call out does, so a call never
// reaches a file that reused the number.
type osFile struct {
	fd    int
	name  string
	state atomic.Uint64
}

const (
	fileClosed = 1
	maxRW      = 1 << 30 // the most one read or write asks for, as the os package
)

// acquire takes a reference for one call; false once Close has run.
func (f *osFile) acquire() bool {
	for {
		s := f.state.Load()
		if s&fileClosed != 0 {
			return false
		}
		if f.state.CompareAndSwap(s, s+2) {
			return true
		}
	}
}

// release drops a call's reference, closing the descriptor when Close
// has run and this was the last call out.
func (f *osFile) release() {
	if f.state.Add(^uint64(1)) == fileClosed { // subtracts 2
		syscall.Close(f.fd)
	}
}

func (f *osFile) pathErr(op string, err error) error {
	return &os.PathError{Op: op, Path: f.name, Err: err}
}

func (f *osFile) Read(p []byte) (int, error) {
	if !f.acquire() {
		return 0, f.pathErr("read", os.ErrClosed)
	}
	defer f.release()
	if len(p) == 0 {
		return 0, nil
	}
	n, err := syscall.Read(f.fd, p[:min(len(p), maxRW)])
	for err == syscall.EINTR {
		n, err = syscall.Read(f.fd, p[:min(len(p), maxRW)])
	}
	switch {
	case err != nil:
		return 0, f.pathErr("read", err)
	case n == 0:
		return 0, io.EOF
	}
	return n, nil
}

// Write loops until p is written or a write fails, as *os.File's does.
func (f *osFile) Write(p []byte) (int, error) {
	if !f.acquire() {
		return 0, f.pathErr("write", os.ErrClosed)
	}
	defer f.release()
	nn := 0
	for {
		n, err := syscall.Write(f.fd, p[nn:min(len(p), nn+maxRW)])
		if err == syscall.EINTR {
			continue
		}
		if n > 0 {
			nn += n
		}
		switch {
		case err != nil:
			return nn, f.pathErr("write", err)
		case nn == len(p):
			return nn, nil
		case n == 0:
			return nn, f.pathErr("write", io.ErrUnexpectedEOF)
		}
	}
}

func (f *osFile) Seek(offset int64, whence int) (int64, error) {
	if !f.acquire() {
		return 0, f.pathErr("seek", os.ErrClosed)
	}
	defer f.release()
	off, err := syscall.Seek(f.fd, offset, whence)
	for err == syscall.EINTR {
		off, err = syscall.Seek(f.fd, offset, whence)
	}
	if err != nil {
		return 0, f.pathErr("seek", err)
	}
	return off, nil
}

func (f *osFile) Truncate(size int64) error {
	return f.do("truncate", func(fd int) error { return syscall.Ftruncate(fd, size) })
}

func (f *osFile) Sync() error { return f.do("sync", syscall.Fsync) }

// do runs call on the descriptor, retrying EINTR.
func (f *osFile) do(op string, call func(fd int) error) error {
	if !f.acquire() {
		return f.pathErr(op, os.ErrClosed)
	}
	defer f.release()
	err := call(f.fd)
	for err == syscall.EINTR {
		err = call(f.fd)
	}
	if err != nil {
		return f.pathErr(op, err)
	}
	return nil
}

// Close marks the file closed and releases the descriptor, at once
// when no call holds it, else when the last one returns (and then
// close(2)'s error is lost, as *os.File's is). A second Close fails
// with os.ErrClosed.
func (f *osFile) Close() error {
	for {
		s := f.state.Load()
		if s&fileClosed != 0 {
			return f.pathErr("close", os.ErrClosed)
		}
		if !f.state.CompareAndSwap(s, s|fileClosed) {
			continue
		}
		if s != 0 {
			return nil
		}
		if err := syscall.Close(f.fd); err != nil {
			return f.pathErr("close", err)
		}
		return nil
	}
}

// Name is the name the file was opened with, also after Close.
func (f *osFile) Name() string { return f.name }

// Fd is the descriptor, for tests that inspect its flags.
func (f *osFile) Fd() uintptr { return uintptr(f.fd) }

// AsOSFile returns f as net/http's sendfile wants it: an OS() file
// hands its descriptor to an *os.File, and f must not be used after;
// any other File comes back as it is, as does an OS() file that is
// closed or in a call.
func AsOSFile(f File) File {
	h, ok := f.(*osFile)
	if !ok || !h.state.CompareAndSwap(0, fileClosed) {
		return f
	}
	return os.NewFile(uintptr(h.fd), h.name)
}
