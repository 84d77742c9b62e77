package sourceclient

import (
	"hash/crc32"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"bistro/internal/backoff"
	"bistro/internal/clock"
	"bistro/internal/protocol"
)

// fakeServer accepts one connection and records the messages, acking
// each.
type fakeServer struct {
	ln    net.Listener
	mu    sync.Mutex
	msgs  []any
	fail  bool
	conns []net.Conn
	wg    sync.WaitGroup
}

func newFakeServer(t *testing.T) *fakeServer { return fakeServerAt(t, "127.0.0.1:0") }

// fakeServerAt is newFakeServer listening on addr.
func fakeServerAt(t *testing.T, addr string) *fakeServer {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fs := &fakeServer{ln: ln}
	fs.wg.Add(1)
	go func() {
		defer fs.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			fs.mu.Lock()
			fs.conns = append(fs.conns, c)
			fs.mu.Unlock()
			fs.wg.Add(1)
			go func() {
				defer fs.wg.Done()
				conn := protocol.NewConn(c)
				defer conn.Close()
				for {
					msg, err := conn.Recv()
					if err != nil {
						return
					}
					fs.mu.Lock()
					fs.msgs = append(fs.msgs, msg)
					failing := fs.fail
					fs.mu.Unlock()
					ack := protocol.Ack{OK: true}
					if failing {
						ack = protocol.Ack{OK: false, Error: "landing full"}
					}
					if err := conn.Send(ack); err != nil {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(fs.kill)
	return fs
}

// kill stops the server the way a crash does: the listener and every
// open connection close.
func (fs *fakeServer) kill() {
	fs.ln.Close()
	fs.mu.Lock()
	for _, c := range fs.conns {
		c.Close()
	}
	fs.mu.Unlock()
	fs.wg.Wait()
}

func (fs *fakeServer) messages() []any {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make([]any, len(fs.msgs))
	copy(out, fs.msgs)
	return out
}

func TestDialSendsHello(t *testing.T) {
	fs := newFakeServer(t)
	c, err := Dial(fs.ln.Addr().String(), "poller7", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	msgs := fs.messages()
	if len(msgs) != 1 {
		t.Fatalf("messages = %v", msgs)
	}
	h, ok := msgs[0].(protocol.Hello)
	if !ok || h.Role != "source" || h.Name != "poller7" {
		t.Fatalf("hello = %#v", msgs[0])
	}
}

func TestUploadCarriesChecksum(t *testing.T) {
	fs := newFakeServer(t)
	c, err := Dial(fs.ln.Addr().String(), "p", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := []byte("a,b\n1,2\n")
	if err := c.Upload("f.csv", data); err != nil {
		t.Fatal(err)
	}
	msgs := fs.messages()
	up, ok := msgs[len(msgs)-1].(protocol.Upload)
	if !ok {
		t.Fatalf("last = %#v", msgs[len(msgs)-1])
	}
	if up.Name != "f.csv" || up.CRC != crc32.ChecksumIEEE(data) {
		t.Fatalf("upload = %+v", up)
	}
}

func TestFileReadyAndEndOfBatch(t *testing.T) {
	fs := newFakeServer(t)
	c, err := Dial(fs.ln.Addr().String(), "p", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.FileReady("sub/dir/f.csv"); err != nil {
		t.Fatal(err)
	}
	if err := c.EndOfBatch("SNMP/BPS"); err != nil {
		t.Fatal(err)
	}
	msgs := fs.messages()
	if fr, ok := msgs[1].(protocol.FileReady); !ok || fr.Path != "sub/dir/f.csv" {
		t.Fatalf("file ready = %#v", msgs[1])
	}
	if eob, ok := msgs[2].(protocol.EndOfBatch); !ok || eob.Feed != "SNMP/BPS" {
		t.Fatalf("eob = %#v", msgs[2])
	}
}

func TestServerErrorSurfaces(t *testing.T) {
	fs := newFakeServer(t)
	c, err := Dial(fs.ln.Addr().String(), "p", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fs.mu.Lock()
	fs.fail = true
	fs.mu.Unlock()
	err = c.Upload("f", []byte("x"))
	if err == nil || !strings.Contains(err.Error(), "landing full") {
		t.Fatalf("err = %v", err)
	}
}

func TestDialUnreachable(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", "p", 100*time.Millisecond); err == nil {
		t.Fatal("expected dial error")
	}
}

func TestWatchDirUploadsNewFiles(t *testing.T) {
	fs := newFakeServer(t)
	c, err := Dial(fs.ln.Addr().String(), "agent", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	dir := t.TempDir()
	os.MkdirAll(filepath.Join(dir, "2010", "09"), 0o755)
	os.WriteFile(filepath.Join(dir, "a.csv"), []byte("1"), 0o644)
	os.WriteFile(filepath.Join(dir, "2010", "09", "b.csv"), []byte("2"), 0o644)
	os.WriteFile(filepath.Join(dir, ".partial"), []byte("skip"), 0o644)

	stop := make(chan struct{})
	var mu sync.Mutex
	uploaded := map[string]bool{}
	done := make(chan error, 1)
	go func() {
		done <- c.WatchDir(dir, WatchOptions{
			Interval: 5 * time.Millisecond,
			Stop:     stop,
			OnUpload: func(name string, err error) {
				if err != nil {
					t.Errorf("upload %s: %v", name, err)
				}
				mu.Lock()
				uploaded[name] = true
				mu.Unlock()
			},
		})
	}()

	waitCond(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return uploaded["a.csv"] && uploaded["2010/09/b.csv"]
	})
	// A file appearing later is picked up too.
	os.WriteFile(filepath.Join(dir, "late.csv"), []byte("3"), 0o644)
	waitCond(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return uploaded["late.csv"]
	})
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Exactly three uploads (no re-uploads of unchanged files, no
	// dotfile).
	count := 0
	for _, m := range fs.messages() {
		if _, ok := m.(protocol.Upload); ok {
			count++
		}
	}
	if count != 3 {
		t.Fatalf("uploads = %d, want 3", count)
	}
}

func TestWatchDirRemove(t *testing.T) {
	fs := newFakeServer(t)
	c, err := Dial(fs.ln.Addr().String(), "agent", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "a.csv"), []byte("1"), 0o644)
	stop := make(chan struct{})
	go func() {
		waitCond(t, func() bool {
			_, err := os.Stat(filepath.Join(dir, "a.csv"))
			return os.IsNotExist(err)
		})
		close(stop)
	}()
	if err := c.WatchDir(dir, WatchOptions{Interval: 5 * time.Millisecond, Stop: stop, Remove: true}); err != nil {
		t.Fatal(err)
	}
}

func TestDialRetryConnects(t *testing.T) {
	fs := newFakeServer(t)
	c, err := DialRetry(fs.ln.Addr().String(), "p", time.Second, backoff.Policy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
}

func TestDialRetryGivesUpAfterMaxRetries(t *testing.T) {
	pol := backoff.Policy{Base: time.Millisecond, Max: time.Millisecond, NoJitter: true, MaxRetries: 3}
	_, err := DialRetry("127.0.0.1:1", "p", 50*time.Millisecond, pol, nil)
	if err == nil || !strings.Contains(err.Error(), "gave up after 3 attempts") {
		t.Fatalf("err = %v", err)
	}
}

func TestWatchDirBacksOffOnUploadFailure(t *testing.T) {
	fs := newFakeServer(t)
	c, err := Dial(fs.ln.Addr().String(), "agent", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fs.mu.Lock()
	fs.fail = true
	fs.mu.Unlock()

	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "a.csv"), []byte("1"), 0o644)

	clk := clock.NewSimulated(time.Unix(0, 0))
	var mu sync.Mutex
	attempts := 0
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- c.WatchDir(dir, WatchOptions{
			Interval: time.Second,
			Clock:    clk,
			Stop:     stop,
			OnUpload: func(name string, err error) {
				mu.Lock()
				attempts++
				mu.Unlock()
			},
			Backoff: backoff.Policy{Base: 4 * time.Second, Max: 4 * time.Second, NoJitter: true},
		})
	}()
	count := func() int {
		mu.Lock()
		defer mu.Unlock()
		return attempts
	}
	waitCond(t, func() bool { return count() == 1 })
	// The failed upload stretches the wait to the 4s backoff delay:
	// advancing by the plain 1s poll interval must not rescan.
	for i := 0; i < 3; i++ {
		clk.Advance(time.Second)
		time.Sleep(5 * time.Millisecond)
	}
	if got := count(); got != 1 {
		t.Fatalf("attempts = %d during backoff window, want 1", got)
	}
	// Heal the server; crossing the backoff deadline retries and
	// succeeds, resetting the stretch back to the poll interval.
	fs.mu.Lock()
	fs.fail = false
	fs.mu.Unlock()
	clk.Advance(time.Second + time.Millisecond)
	waitCond(t, func() bool { return count() == 2 })
	os.WriteFile(filepath.Join(dir, "b.csv"), []byte("2"), 0o644)
	clk.Advance(time.Second + time.Millisecond)
	waitCond(t, func() bool { return count() == 3 })
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func waitCond(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached")
}

// TestWatchDirSurvivesServerRestart: the server dies under a watching
// client and comes back on the same address. The upload that hit the
// dead connection fails; a later scan redials, says Hello again and
// uploads the file.
func TestWatchDirSurvivesServerRestart(t *testing.T) {
	first := newFakeServer(t)
	addr := first.ln.Addr().String()
	c, err := Dial(addr, "agent", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "a.csv"), []byte("1"), 0o644)

	var mu sync.Mutex
	results := map[string][]error{}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- c.WatchDir(dir, WatchOptions{
			Interval: 5 * time.Millisecond,
			Stop:     stop,
			OnUpload: func(name string, err error) {
				mu.Lock()
				results[name] = append(results[name], err)
				mu.Unlock()
			},
			Backoff: backoff.Policy{Base: 5 * time.Millisecond, Max: 20 * time.Millisecond, NoJitter: true},
		})
	}()
	uploaded := func(name string, wantFailure bool) func() bool {
		return func() bool {
			mu.Lock()
			defer mu.Unlock()
			errs := results[name]
			failed := false
			for _, err := range errs {
				failed = failed || err != nil
			}
			return len(errs) > 0 && errs[len(errs)-1] == nil && failed == wantFailure
		}
	}
	waitCond(t, uploaded("a.csv", false))

	first.kill()
	os.WriteFile(filepath.Join(dir, "b.csv"), []byte("2"), 0o644)
	waitCond(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(results["b.csv"]) > 0
	})
	second := fakeServerAt(t, addr)
	waitCond(t, uploaded("b.csv", true))
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	msgs := second.messages()
	if h, ok := msgs[0].(protocol.Hello); !ok || h.Name != "agent" {
		t.Fatalf("first message after the restart = %#v, want the agent's Hello", msgs[0])
	}
	if up, ok := msgs[len(msgs)-1].(protocol.Upload); !ok || up.Name != "b.csv" {
		t.Fatalf("last message after the restart = %#v, want the b.csv upload", msgs[len(msgs)-1])
	}
}
