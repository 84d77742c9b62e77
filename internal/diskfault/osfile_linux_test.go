//go:build linux && (amd64 || arm64)

package diskfault

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestOSFileMatchesOSFile runs each case on a file OS() opened and on
// an *os.File opened the same way, over twin files, and wants the same
// transcript: every call's count, error text and error class, and the
// file's bytes after.
func TestOSFileMatchesOSFile(t *testing.T) {
	const content = "0123456789"
	const rdwr, wronly = os.O_RDWR, os.O_WRONLY
	for _, c := range []struct {
		name string
		flag int
		ops  func(f File, log func(string, ...any))
	}{
		{"read to EOF", os.O_RDONLY, func(f File, log func(string, ...any)) {
			buf := make([]byte, 4)
			for i := 0; i < 4; i++ {
				n, err := f.Read(buf)
				log("read %d %q %v", n, buf[:n], err)
			}
		}},
		{"zero-length read", os.O_RDONLY, func(f File, log func(string, ...any)) {
			n, err := f.Read(nil)
			log("read at start %d %v", n, err)
			_, err = f.Seek(0, io.SeekEnd)
			log("seek %v", err)
			n, err = f.Read([]byte{})
			log("read at EOF %d %v", n, err)
		}},
		{"write to an O_RDONLY file", os.O_RDONLY, func(f File, log func(string, ...any)) {
			n, err := f.Write([]byte("x"))
			log("write %d %v", n, err)
		}},
		{"read from an O_WRONLY file", wronly, func(f File, log func(string, ...any)) {
			n, err := f.Read(make([]byte, 4))
			log("read %d %v", n, err)
		}},
		{"seek", os.O_RDONLY, func(f File, log func(string, ...any)) {
			buf := make([]byte, 2)
			for _, s := range []struct {
				off    int64
				whence int
			}{{2, io.SeekStart}, {1, io.SeekCurrent}, {-3, io.SeekEnd}, {-1, io.SeekStart}, {-20, io.SeekCurrent}, {5, 7}, {20, io.SeekEnd}} {
				off, err := f.Seek(s.off, s.whence)
				n, rerr := f.Read(buf)
				log("seek(%d, %d) %d %v, read %q %v", s.off, s.whence, off, err, buf[:n], rerr)
			}
		}},
		{"write, seek and read back", rdwr, func(f File, log func(string, ...any)) {
			n, err := f.Write([]byte("abc"))
			log("write %d %v", n, err)
			off, err := f.Seek(0, io.SeekStart)
			log("seek %d %v", off, err)
			got, err := io.ReadAll(f)
			log("read %q %v", got, err)
		}},
		{"truncate", rdwr, func(f File, log func(string, ...any)) {
			log("truncate 3 %v", f.Truncate(3))
			off, err := f.Seek(0, io.SeekEnd)
			log("size %d %v", off, err)
			log("truncate -1 %v", f.Truncate(-1))
			log("truncate 12 %v", f.Truncate(12))
		}},
		{"truncate an O_RDONLY file", os.O_RDONLY, func(f File, log func(string, ...any)) {
			log("truncate %v", f.Truncate(1))
		}},
		{"sync", rdwr, func(f File, log func(string, ...any)) {
			log("sync %v", f.Sync())
		}},
		{"sync an O_RDONLY file", os.O_RDONLY, func(f File, log func(string, ...any)) {
			log("sync %v", f.Sync())
		}},
		{"O_APPEND", wronly | os.O_APPEND, func(f File, log func(string, ...any)) {
			n, err := f.Write([]byte("ab"))
			log("write %d %v", n, err)
			off, err := f.Seek(0, io.SeekStart)
			log("seek %d %v", off, err)
			n, err = f.Write([]byte("cd"))
			log("write after seek %d %v", n, err)
		}},
		{"calls after Close", rdwr, func(f File, log func(string, ...any)) {
			log("close %v", f.Close())
			log("name %s", f.Name())
			n, err := f.Read(make([]byte, 4))
			log("read %d %v %v", n, err, errors.Is(err, os.ErrClosed))
			n, err = f.Read(nil)
			log("zero-length read %d %v %v", n, err, errors.Is(err, os.ErrClosed))
			n, err = f.Write([]byte("x"))
			log("write %d %v %v", n, err, errors.Is(err, os.ErrClosed))
			off, err := f.Seek(0, io.SeekStart)
			log("seek %d %v %v", off, err, errors.Is(err, os.ErrClosed))
			err = f.Truncate(0)
			log("truncate %v %v", err, errors.Is(err, os.ErrClosed))
			err = f.Sync()
			log("sync %v %v", err, errors.Is(err, os.ErrClosed))
			err = f.Close()
			log("second close %v %v", err, errors.Is(err, os.ErrClosed))
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var logs [2][]string
			var after [2]string
			for i, open := range []func(name string) (File, error){
				func(name string) (File, error) { return OS().OpenFile(name, c.flag, 0) },
				func(name string) (File, error) { return os.OpenFile(name, c.flag, 0) },
			} {
				dir := t.TempDir()
				p := filepath.Join(dir, "f")
				if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
					t.Fatal(err)
				}
				f, err := open(p)
				if err != nil {
					t.Fatal(err)
				}
				c.ops(f, func(format string, args ...any) {
					for j, a := range args {
						if err, ok := a.(error); ok {
							// The error's type and text: op, path and errno.
							args[j] = fmt.Sprintf("%T(%v)", err, err)
						}
					}
					logs[i] = append(logs[i], strings.ReplaceAll(fmt.Sprintf(format, args...), dir, "D"))
				})
				f.Close()
				after[i] = string(readAll(t, p))
			}
			if got, want := strings.Join(logs[0], "\n"), strings.Join(logs[1], "\n"); got != want {
				t.Errorf("OS() file:\n%s\n*os.File:\n%s", got, want)
			}
			if after[0] != after[1] {
				t.Errorf("file after: %q, *os.File's %q", after[0], after[1])
			}
		})
	}
	t.Run("read a directory", func(t *testing.T) {
		dir := t.TempDir()
		ours, err := OS().Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer ours.Close()
		theirs, err := os.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer theirs.Close()
		_, err1 := ours.Read(make([]byte, 4))
		_, err2 := theirs.Read(make([]byte, 4))
		if fmt.Sprint(err1) != fmt.Sprint(err2) {
			t.Errorf("got %v, *os.File %v", err1, err2)
		}
	})
}

// A Close racing a call must not release the descriptor under it: the
// number would go to the next open, and the call would read another
// file's bytes.
func TestOSFileCloseRacesCall(t *testing.T) {
	t.Run("looping Read", testCloseRacesLoopingRead)
	t.Run("blocked Read", testCloseRacesBlockedRead)
}

// A reader loops Seek and Read on one file while the test closes it and
// at once opens another file, which takes the lowest free descriptor:
// the closed file's, once it is released. The reader must see only its
// own file's bytes, then os.ErrClosed.
func testCloseRacesLoopingRead(t *testing.T) {
	dir := t.TempDir()
	mine, other := filepath.Join(dir, "mine"), filepath.Join(dir, "other")
	for name, b := range map[string]string{mine: "mine", other: "NEW!"} {
		if err := os.WriteFile(name, []byte(b), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 3000; round++ {
		f, err := OS().Open(mine)
		if err != nil {
			t.Fatal(err)
		}
		started := make(chan struct{})
		done := make(chan error, 1)
		go func() {
			buf := make([]byte, 4)
			for i := 0; ; i++ {
				if i == 1 {
					close(started)
				}
				_, err := f.Seek(0, io.SeekStart)
				n := 0
				if err == nil {
					n, err = f.Read(buf)
				}
				if err != nil {
					if !errors.Is(err, os.ErrClosed) {
						err = fmt.Errorf("reader's error: %w, want os.ErrClosed", err)
					} else {
						err = nil
					}
					done <- err
					return
				}
				if string(buf[:n]) != "mine" {
					done <- fmt.Errorf("reader saw %q after Close", buf[:n])
					return
				}
			}
		}()
		<-started
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		g, err := OS().Open(other)
		if err != nil {
			t.Fatal(err)
		}
		err = <-done
		g.Close()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// A Read blocked on an empty FIFO holds the descriptor through Close: a
// file opened meanwhile gets another number, the Read returns the FIFO's
// bytes when they come, and only then is the descriptor released.
func testCloseRacesBlockedRead(t *testing.T) {
	dir := t.TempDir()
	fifo := filepath.Join(dir, "fifo")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	// O_RDWR opens a FIFO without waiting for a writer.
	f, err := OS().OpenFile(fifo, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	fd := f.(interface{ Fd() uintptr }).Fd()
	got := make(chan string, 1)
	go func() {
		buf := make([]byte, 8)
		n, err := f.Read(buf)
		got <- fmt.Sprintf("%q %v", buf[:n], err)
	}()
	time.Sleep(20 * time.Millisecond) // let the Read block
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g, err := OS().Open(filepath.Join(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if gfd := g.(interface{ Fd() uintptr }).Fd(); gfd == fd {
		t.Fatalf("a file opened during the blocked Read took its descriptor %d", fd)
	}
	w, err := os.OpenFile(fifo, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Write([]byte("fifo")); err != nil {
		t.Fatal(err)
	}
	if s := <-got; s != `"fifo" <nil>` {
		t.Errorf("blocked Read returned %s, want the FIFO's bytes", s)
	}
	if _, err := f.Read(make([]byte, 1)); !errors.Is(err, os.ErrClosed) {
		t.Errorf("Read after Close: %v, want os.ErrClosed", err)
	}
	// The Read's return released the descriptor: the next open takes it.
	h, err := OS().Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if hfd := h.(interface{ Fd() uintptr }).Fd(); hfd != fd {
		t.Errorf("descriptor %d still held after the Read returned (next open got %d)", fd, hfd)
	}
}

// AsOSFile hands an OS() file's descriptor to an *os.File that reads
// the same file; anything else comes back as it is.
func TestAsOSFile(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "f")
	if err := os.WriteFile(p, []byte("bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := OS().Open(p)
	if err != nil {
		t.Fatal(err)
	}
	osf, ok := AsOSFile(f).(*os.File)
	if !ok {
		t.Fatalf("AsOSFile gave %T, want *os.File", AsOSFile(f))
	}
	if got, err := io.ReadAll(osf); err != nil || string(got) != "bytes" || osf.Name() != p {
		t.Errorf("read %q (%v) from %s", got, err, osf.Name())
	}
	if err := osf.Close(); err != nil {
		t.Fatal(err)
	}
	// f gave its descriptor away: closing it is an error, not a close(2).
	if err := f.Close(); !errors.Is(err, os.ErrClosed) {
		t.Errorf("Close of the handed-over file: %v, want os.ErrClosed", err)
	}
	wrapped, err := NoSync(OS()).Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer wrapped.Close()
	if got := AsOSFile(wrapped); got != wrapped {
		t.Errorf("AsOSFile of a wrapped file gave %T", got)
	}
}
