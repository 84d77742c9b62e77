//go:build linux && (amd64 || arm64)

package diskfault

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
)

// The real filesystem's path calls allocate nothing but the handle an
// open returns (one object) and the name CreateTemp picks.
func TestOSFSPathOpsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations distort the counts")
	}
	fsys := OS()
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a"), filepath.Join(dir, "b")
	if err := os.WriteFile(a, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	closeFile := func(f File, err error) {
		must(err)
		must(f.Close())
	}
	for _, c := range []struct {
		name string
		want float64
		op   func()
	}{
		{"Rename", 0, func() { must(fsys.Rename(a, b)); must(fsys.Rename(b, a)) }},
		{"MkdirAll of an existing directory", 0, func() { must(fsys.MkdirAll(dir, 0o755)) }},
		{"SyncDir", 0, func() { must(fsys.SyncDir(dir)) }},
		{"Open", 1, func() { closeFile(fsys.Open(a)) }},
		{"OpenFile", 1, func() { closeFile(fsys.OpenFile(a, os.O_WRONLY|os.O_APPEND, 0o644)) }},
		// The file Create returns is the only allocation: Remove adds none.
		{"Create and Remove", 1, func() { closeFile(fsys.Create(b)); must(fsys.Remove(b)) }},
		{"CreateTemp and Remove", 2, func() {
			f, err := fsys.CreateTemp(dir, ".tmp-*")
			closeFile(f, err)
			must(fsys.Remove(f.Name()))
		}},
	} {
		if got := testing.AllocsPerRun(50, c.op); got != c.want {
			t.Errorf("%s: %v allocations, want %v", c.name, got, c.want)
		}
	}
}

// refSyncDir is SyncDir through the os package.
func refSyncDir(dir string) error {
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

// TestOSFSMatchesOS runs each call through OS() and through the os
// package on identical trees and wants the same outcome: the same
// error text, hence the same op, path and errno, and the same tree
// after. The files OS() opens must behave as the os package's too.
func TestOSFSMatchesOS(t *testing.T) {
	t.Run("errors", testOSFSErrors)
	t.Run("files", testOSFSFiles)
	t.Run("concurrent CreateTemp", testOSFSCreateTempConcurrent)
	t.Run("no descriptor left", testOSFSLeavesNoFD)
}

func testOSFSErrors(t *testing.T) {
	fsys := OS()
	long := strings.Repeat("deep/", 120) + "f" // past the stack array
	setup := func(t *testing.T, dir string) {
		for _, d := range []string{"empty", "full", filepath.Dir(long)} {
			if err := os.MkdirAll(filepath.Join(dir, d), 0o755); err != nil {
				t.Fatal(err)
			}
		}
		for _, f := range []string{"file", "full/x", long} {
			if err := os.WriteFile(filepath.Join(dir, f), []byte("data"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	closed := func(f interface{ Close() error }, err error) error {
		if err == nil {
			err = f.Close()
		}
		return err
	}
	for _, c := range []struct {
		name       string
		ours, want func(dir string) error
	}{
		{"open missing",
			func(d string) error { return closed(fsys.Open(d + "/missing")) },
			func(d string) error { return closed(os.Open(d + "/missing")) }},
		{"exclusive create of an existing file",
			func(d string) error { return closed(fsys.OpenFile(d+"/file", os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)) },
			func(d string) error { return closed(os.OpenFile(d+"/file", os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)) }},
		{"NUL in a name",
			func(d string) error { return closed(fsys.Open(d + "/fi\x00le")) },
			func(d string) error { return closed(os.Open(d + "/fi\x00le")) }},
		{"NUL in a rename",
			func(d string) error { return fsys.Rename(d+"/file", d+"/x\x00") },
			func(d string) error { return syscallRename(d+"/file", d+"/x\x00") }},
		{"name one byte short of the stack array",
			func(d string) error { return closed(fsys.Open(sized(d, len(cpath{})-1))) },
			func(d string) error { return closed(os.Open(sized(d, len(cpath{})-1))) }},
		{"name as long as the stack array",
			func(d string) error { return closed(fsys.Open(sized(d, len(cpath{})))) },
			func(d string) error { return closed(os.Open(sized(d, len(cpath{})))) }},
		{"open a long name",
			func(d string) error { return closed(fsys.Open(d + "/" + long)) },
			func(d string) error { return closed(os.Open(d + "/" + long)) }},
		{"open a long missing name",
			func(d string) error { return closed(fsys.Open(d + "/" + long + "x")) },
			func(d string) error { return closed(os.Open(d + "/" + long + "x")) }},
		{"create under a long name",
			func(d string) error { return closed(fsys.Create(d + "/" + long + "2")) },
			func(d string) error { return closed(os.Create(d + "/" + long + "2")) }},
		{"MkdirAll onto a file",
			func(d string) error { return fsys.MkdirAll(d+"/file", 0o755) },
			func(d string) error { return os.MkdirAll(d+"/file", 0o755) }},
		{"MkdirAll through a file",
			func(d string) error { return fsys.MkdirAll(d+"/file/sub", 0o755) },
			func(d string) error { return os.MkdirAll(d+"/file/sub", 0o755) }},
		{"MkdirAll of a new tree",
			func(d string) error { return fsys.MkdirAll(d+"/n/e/w", 0o755) },
			func(d string) error { return os.MkdirAll(d+"/n/e/w", 0o755) }},
		{"MkdirAll of a long name",
			func(d string) error { return fsys.MkdirAll(d+"/"+filepath.Dir(long), 0o755) },
			func(d string) error { return os.MkdirAll(d+"/"+filepath.Dir(long), 0o755) }},
		{"Remove a file",
			func(d string) error { return fsys.Remove(d + "/file") },
			func(d string) error { return os.Remove(d + "/file") }},
		{"Remove an empty directory",
			func(d string) error { return fsys.Remove(d + "/empty") },
			func(d string) error { return os.Remove(d + "/empty") }},
		{"Remove a non-empty directory",
			func(d string) error { return fsys.Remove(d + "/full") },
			func(d string) error { return os.Remove(d + "/full") }},
		{"Remove missing",
			func(d string) error { return fsys.Remove(d + "/missing") },
			func(d string) error { return os.Remove(d + "/missing") }},
		{"Remove a long name",
			func(d string) error { return fsys.Remove(d + "/" + long) },
			func(d string) error { return os.Remove(d + "/" + long) }},
		{"Rename missing",
			func(d string) error { return fsys.Rename(d+"/missing", d+"/y") },
			func(d string) error { return os.Rename(d+"/missing", d+"/y") }},
		{"Rename over a file",
			func(d string) error { return fsys.Rename(d+"/full/x", d+"/file") },
			func(d string) error { return os.Rename(d+"/full/x", d+"/file") }},
		{"Rename a long name",
			func(d string) error { return fsys.Rename(d+"/"+long, d+"/moved") },
			func(d string) error { return os.Rename(d+"/"+long, d+"/moved") }},
		{"SyncDir",
			func(d string) error { return fsys.SyncDir(d + "/full") },
			func(d string) error { return refSyncDir(d + "/full") }},
		{"SyncDir missing",
			func(d string) error { return fsys.SyncDir(d + "/missing") },
			func(d string) error { return refSyncDir(d + "/missing") }},
		{"CreateTemp pattern with a separator",
			func(d string) error { return closed(fsys.CreateTemp(d, "a/b*")) },
			func(d string) error { return closed(os.CreateTemp(d, "a/b*")) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			dirs := [2]string{t.TempDir(), t.TempDir()}
			var errs [2]string
			var trees [2][]string
			for i, op := range []func(string) error{c.ours, c.want} {
				setup(t, dirs[i])
				errs[i] = fmt.Sprint(op(dirs[i]))
				errs[i] = strings.ReplaceAll(errs[i], dirs[i], "D")
				trees[i] = tree(t, dirs[i])
			}
			if errs[0] != errs[1] {
				t.Errorf("got %s\nwant %s", errs[0], errs[1])
			}
			if fmt.Sprint(trees[0]) != fmt.Sprint(trees[1]) {
				t.Errorf("tree after:\n%v\nwant\n%v", trees[0], trees[1])
			}
		})
	}

	// errors.Is sees the os package's classes through the new errors.
	dir := t.TempDir()
	setup(t, dir)
	if _, err := fsys.Open(dir + "/missing"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("open missing: %v, want ErrNotExist", err)
	}
	if _, err := fsys.OpenFile(dir+"/file", os.O_CREATE|os.O_EXCL, 0o600); !errors.Is(err, fs.ErrExist) {
		t.Errorf("exclusive create: %v, want ErrExist", err)
	}
	if err := fsys.Rename(dir+"/missing", dir+"/y"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("rename missing: %v, want ErrNotExist", err)
	}
	if err := fsys.Remove(dir + "/missing"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("remove missing: %v, want ErrNotExist", err)
	}
	if err := fsys.MkdirAll(dir+"/file", 0o755); !errors.Is(err, syscall.ENOTDIR) {
		t.Errorf("MkdirAll onto a file: %v, want ENOTDIR", err)
	}
}

// sized is a missing path under dir exactly n bytes long, in
// components short enough that the kernel looks for it.
func sized(dir string, n int) string {
	p := dir
	for len(p) < n {
		p += "/" + strings.Repeat("c", min(100, n-len(p)-1))
	}
	return p
}

// syscallRename is the rename(2) the os package's would-be Lstat
// precedes (OS().Rename skips it).
func syscallRename(oldpath, newpath string) error {
	if err := syscall.Rename(oldpath, newpath); err != nil {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: err}
	}
	return nil
}

// tree lists every path under dir with its mode and size.
func tree(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.Walk(dir, func(p string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		out = append(out, fmt.Sprintf("%s %v %d", strings.TrimPrefix(p, dir), fi.Mode(), fi.Size()))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// Files OS() opens behave as the os package's: the given name, close on
// exec, blocking, append mode kept.
func testOSFSFiles(t *testing.T) {
	fsys := OS()
	dir := t.TempDir()
	p := filepath.Join(dir, "f")
	if err := os.WriteFile(p, []byte("0123"), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Setenv("TMPDIR", dir)
	tempName := regexp.MustCompile(`^pre[0-9]+\.suf$`)
	opens := map[string]func() (File, error){
		"Open":               func() (File, error) { return fsys.Open(p) },
		"OpenFile O_APPEND":  func() (File, error) { return fsys.OpenFile(p, os.O_WRONLY|os.O_APPEND, 0) },
		"Create":             func() (File, error) { return fsys.Create(p + ".new") },
		"CreateTemp":         func() (File, error) { return fsys.CreateTemp(dir, "pre*.suf") },
		"CreateTemp slash":   func() (File, error) { return fsys.CreateTemp(dir+"/", "pre*.suf") },
		"CreateTemp TMPDIR":  func() (File, error) { return fsys.CreateTemp("", "pre*.suf") },
		"OpenFile directory": func() (File, error) { return fsys.Open(dir) },
	}
	for name, open := range opens {
		f, err := open()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fd := f.(interface{ Fd() uintptr }).Fd()
		fdflags, _, e1 := syscall.Syscall(syscall.SYS_FCNTL, fd, syscall.F_GETFD, 0)
		flflags, _, e2 := syscall.Syscall(syscall.SYS_FCNTL, fd, syscall.F_GETFL, 0)
		if e1 != 0 || e2 != 0 {
			t.Fatalf("%s: fcntl: %v %v", name, e1, e2)
		}
		if fdflags&syscall.FD_CLOEXEC == 0 {
			t.Errorf("%s: FD_CLOEXEC not set", name)
		}
		if flflags&syscall.O_NONBLOCK != 0 {
			t.Errorf("%s: left non-blocking", name)
		}
		if strings.HasPrefix(name, "CreateTemp") {
			fi, err := os.Stat(f.Name())
			if err != nil || filepath.Dir(f.Name()) != dir || !tempName.MatchString(filepath.Base(f.Name())) || fi.Mode() != 0o600 {
				t.Errorf("%s: made %s (%v, %v), want mode 0600 %s/pre<n>.suf", name, f.Name(), fi, err, dir)
			}
		}
		if name == "OpenFile O_APPEND" {
			if _, err := f.Write([]byte("45")); err != nil {
				t.Fatal(err)
			}
			if got := readAll(t, p); string(got) != "012345" {
				t.Errorf("append wrote %q", got)
			}
		}
		if err := f.Close(); err != nil {
			t.Errorf("%s: close: %v", name, err)
		}
	}
	if f, err := fsys.Open(p); err != nil || f.Name() != p {
		t.Errorf("Name() = %v (%v), want %s", f, err, p)
	} else {
		f.Close()
	}
	if f, err := fsys.CreateTemp(dir, "noStar"); err != nil || !regexp.MustCompile(`/noStar[0-9]+$`).MatchString(f.Name()) {
		t.Errorf("pattern without *: %v, %v", f, err)
	} else {
		f.Close()
	}
}

// Concurrent CreateTemps in one directory never share a name.
func testOSFSCreateTempConcurrent(t *testing.T) {
	fsys := OS()
	dir := t.TempDir()
	const n = 64
	names := make([]string, n)
	var wg sync.WaitGroup
	for i := range names {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, err := fsys.CreateTemp(dir, ".tmp-*")
			if err != nil {
				t.Error(err)
				return
			}
			names[i] = f.Name()
			f.Close()
		}(i)
	}
	wg.Wait()
	seen := map[string]bool{}
	for _, name := range names {
		if seen[name] {
			t.Errorf("%s made twice", name)
		}
		seen[name] = true
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != n {
		t.Errorf("%d files in the directory (%v), want %d", len(ents), err, n)
	}
}

// SyncDir and failed opens leave no descriptor open.
func testOSFSLeavesNoFD(t *testing.T) {
	fsys := OS()
	dir := t.TempDir()
	if err := os.WriteFile(dir+"/file", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd: %v", err)
		}
		return len(ents)
	}
	fds() // the first directory read may start the poller, which holds descriptors
	before := fds()
	for i := 0; i < 1000; i++ {
		if err := fsys.SyncDir(dir); err != nil {
			t.Fatal(err)
		}
		if fsys.SyncDir(dir+"/file") == nil || fsys.SyncDir(dir+"/missing") == nil {
			t.Fatal("SyncDir of a file or of a missing directory succeeded")
		}
		if _, err := fsys.Open(dir + "/missing"); err == nil {
			t.Fatal("opened a missing file")
		}
		if _, err := fsys.OpenFile(dir+"/file", os.O_CREATE|os.O_EXCL, 0o600); err == nil {
			t.Fatal("exclusive create of an existing file succeeded")
		}
	}
	if after := fds(); after != before {
		t.Errorf("%d descriptors open after, %d before", after, before)
	}
}
