//go:build !linux || !(amd64 || arm64)

package diskfault

import (
	"os"
	"syscall"
)

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) Open(name string) (File, error)   { return os.Open(name) }
func (osFS) Create(name string) (File, error) { return os.Create(name) }
func (osFS) CreateTemp(dir, pattern string) (File, error) {
	return os.CreateTemp(dir, pattern)
}

// AsOSFile returns f: an OS() file here is already an *os.File.
func AsOSFile(f File) File { return f }

func (osFS) Rename(oldpath, newpath string) error         { return rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

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
