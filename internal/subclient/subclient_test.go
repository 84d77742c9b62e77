package subclient

import (
	"bytes"
	"errors"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bistro/internal/protocol"
)

func startDaemon(t *testing.T, opts Options) *Daemon {
	t.Helper()
	if opts.DestDir == "" {
		opts.DestDir = t.TempDir()
	}
	d, err := Start("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	return d
}

func dial(t *testing.T, d *Daemon) *protocol.Conn {
	t.Helper()
	conn, err := protocol.Dial(d.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func deliver(name string, data []byte) protocol.Deliver {
	return protocol.Deliver{
		FileID: 1, Feed: "F", Name: name, Data: data,
		CRC: crc32.ChecksumIEEE(data),
	}
}

func TestDeliverWritesFile(t *testing.T) {
	dest := t.TempDir()
	d := startDaemon(t, Options{Name: "s", DestDir: dest})
	conn := dial(t, d)
	if err := conn.Call(deliver("in/CPU/f.txt", []byte("payload"))); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dest, "in", "CPU", "f.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "payload" {
		t.Fatalf("content = %q", got)
	}
	if rx := d.Received(); len(rx) != 1 || rx[0] != "in/CPU/f.txt" {
		t.Fatalf("received = %v", rx)
	}
}

func TestDeliverRejectsBadChecksum(t *testing.T) {
	d := startDaemon(t, Options{Name: "s"})
	conn := dial(t, d)
	m := deliver("f.txt", []byte("x"))
	m.CRC++
	err := conn.Call(m)
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("err = %v", err)
	}
}

// A name that would not resolve strictly under DestDir is refused and
// leaves nothing anywhere, DestDir's parent included ("" and "." used
// to put a temp file there).
func TestDeliverRejectsEscapingPath(t *testing.T) {
	w := startWatched(t, Options{Name: "s"})
	conn := dial(t, w.Daemon)
	for _, p := range []string{"../evil", "/abs", "", ".", "a/..", "a/../../evil"} {
		if err := conn.Call(deliver(p, []byte("x"))); err == nil || !strings.Contains(err.Error(), "invalid path") {
			t.Fatalf("path %q: err = %v, want an invalid-path refusal", p, err)
		}
	}
	w.expectNothing(t)
}

// Names that merely hold dots are legal and land where they say.
func TestDeliverAcceptsDottedNames(t *testing.T) {
	w := startWatched(t, Options{Name: "s"})
	conn := dial(t, w.Daemon)
	for _, p := range []string{"..hidden", "CPU/poll..txt", "a/../b"} {
		if err := conn.Call(deliver(p, []byte(p))); err != nil {
			t.Fatalf("path %q: %v", p, err)
		}
		got, err := os.ReadFile(filepath.Join(w.dest, filepath.FromSlash(p)))
		if err != nil || string(got) != p {
			t.Fatalf("path %q: content %q, %v", p, got, err)
		}
	}
	if n := w.files.Load(); n != 3 {
		t.Fatalf("OnFile fired %d times, want 3", n)
	}
}

func TestOnFileCallback(t *testing.T) {
	var mu sync.Mutex
	var seen []string
	d := startDaemon(t, Options{
		Name: "s",
		OnFile: func(rel string) {
			mu.Lock()
			seen = append(seen, rel)
			mu.Unlock()
		},
	})
	conn := dial(t, d)
	if err := conn.Call(deliver("a.txt", []byte("1"))); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 1 || seen[0] != "a.txt" {
		t.Fatalf("seen = %v", seen)
	}
	// The hook got the name; a long-running daemon keeps no second copy.
	if rx := d.Received(); len(rx) != 0 {
		t.Fatalf("Received() = %v alongside an OnFile hook", rx)
	}
}

func TestNotify(t *testing.T) {
	var mu sync.Mutex
	var got []protocol.Notify
	d := startDaemon(t, Options{
		Name: "s",
		OnNotify: func(n protocol.Notify) {
			mu.Lock()
			got = append(got, n)
			mu.Unlock()
		},
	})
	conn := dial(t, d)
	if err := conn.Call(protocol.Notify{FileID: 9, Feed: "F", Name: "x", Size: 5}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if len(got) != 1 || got[0].FileID != 9 {
		t.Fatalf("notify = %v", got)
	}
	mu.Unlock()
	if ns := d.Notifications(); len(ns) != 1 {
		t.Fatalf("notifications = %v", ns)
	}
}

func TestTriggerDisabledByDefault(t *testing.T) {
	d := startDaemon(t, Options{Name: "s"})
	conn := dial(t, d)
	err := conn.Call(protocol.Trigger{Command: "true"})
	if err == nil || !strings.Contains(err.Error(), "not allowed") {
		t.Fatalf("err = %v", err)
	}
}

func TestTriggerAllowed(t *testing.T) {
	marker := filepath.Join(t.TempDir(), "fired")
	d := startDaemon(t, Options{Name: "s", AllowTriggers: true})
	conn := dial(t, d)
	if err := conn.Call(protocol.Trigger{Command: "touch " + marker}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(marker); err != nil {
		t.Fatal("trigger did not run")
	}
	// Failing command returns the error.
	if err := conn.Call(protocol.Trigger{Command: "exit 9"}); err == nil {
		t.Fatal("failing trigger acked OK")
	}
}

func TestTriggerHandlerOverride(t *testing.T) {
	var mu sync.Mutex
	var cmds []string
	d := startDaemon(t, Options{
		Name: "s",
		OnTrigger: func(cmd string, paths []string) error {
			mu.Lock()
			cmds = append(cmds, cmd)
			mu.Unlock()
			return nil
		},
	})
	conn := dial(t, d)
	if err := conn.Call(protocol.Trigger{Command: "load x", Paths: []string{"x"}}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(cmds) != 1 || cmds[0] != "load x" {
		t.Fatalf("cmds = %v", cmds)
	}
}

func TestHelloAndUnknownMessage(t *testing.T) {
	d := startDaemon(t, Options{Name: "s"})
	conn := dial(t, d)
	if err := conn.Call(protocol.Hello{Role: "server", Name: "srv"}); err != nil {
		t.Fatal(err)
	}
	if err := conn.Call(protocol.Fetch{FileID: 1}); err == nil {
		t.Fatal("daemon should reject Fetch")
	}
}

func TestStartRequiresDest(t *testing.T) {
	if _, err := Start("127.0.0.1:0", Options{Name: "s"}); err == nil {
		t.Fatal("missing dest accepted")
	}
}

func TestStopUnblocksConnections(t *testing.T) {
	d := startDaemon(t, Options{Name: "s"})
	conn := dial(t, d)
	if err := conn.Call(deliver("f", []byte("x"))); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		d.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop hung on open connection")
	}
}

func TestConcurrentDeliveries(t *testing.T) {
	dest := t.TempDir()
	d := startDaemon(t, Options{Name: "s", DestDir: dest})
	const workers = 4
	const each = 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn, err := protocol.Dial(d.Addr(), time.Second)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer conn.Close()
			for i := 0; i < each; i++ {
				name := filepath.Join("w", string(rune('a'+w)), "f", time.Now().Format("150405.000000000"))
				data := []byte{byte(w), byte(i)}
				if err := conn.Call(deliver(name+string(rune('0'+i%10)), data)); err != nil {
					t.Errorf("deliver: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := len(d.Received()); got != workers*each {
		t.Fatalf("received = %d, want %d", got, workers*each)
	}
}

// watched is a daemon whose DestDir sits alone in a fresh parent
// directory, with its OnFile calls counted.
type watched struct {
	*Daemon
	parent, dest string
	files        atomic.Int32
}

func startWatched(t *testing.T, opts Options) *watched {
	t.Helper()
	w := &watched{parent: t.TempDir()}
	w.dest = filepath.Join(w.parent, "dest")
	opts.DestDir = w.dest
	opts.OnFile = func(string) { w.files.Add(1) }
	w.Daemon = startDaemon(t, opts)
	return w
}

// entries lists every path under the parent but DestDir itself.
func (w *watched) entries(t *testing.T) []string {
	t.Helper()
	var got []string
	filepath.WalkDir(w.parent, func(path string, d fs.DirEntry, err error) error {
		if err == nil && path != w.parent && path != w.dest {
			got = append(got, path)
		}
		return nil
	})
	return got
}

// expectNothing fails unless no file (temp or final) exists and
// OnFile never fired.
func (w *watched) expectNothing(t *testing.T) {
	t.Helper()
	if got := w.entries(t); len(got) != 0 {
		t.Fatalf("left behind: %v", got)
	}
	if n := w.files.Load(); n != 0 {
		t.Fatalf("OnFile fired %d times", n)
	}
}

// pattern is size bytes that no shifted copy matches.
func pattern(size int) []byte {
	p := make([]byte, size)
	for i := range p {
		p[i] = byte(i * 31)
	}
	return p
}

// sendFrom streams a Deliver of data the way the server sends files
// above its stream threshold, and returns the reply.
func sendFrom(t *testing.T, conn *protocol.Conn, m protocol.Deliver, data []byte) protocol.Ack {
	t.Helper()
	if err := conn.SendFrom(m, bytes.NewReader(data), int64(len(data))); err != nil {
		t.Fatal(err)
	}
	reply, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	ack, ok := reply.(protocol.Ack)
	if !ok {
		t.Fatalf("reply = %#v", reply)
	}
	return ack
}

// A file larger than the daemon's read buffer streams from the socket
// into place in one Deliver frame, and the connection stays usable.
func TestStreamedDeliver(t *testing.T) {
	dest := t.TempDir()
	d := startDaemon(t, Options{Name: "s", DestDir: dest})
	conn := dial(t, d)
	payload := pattern(600 << 10)
	m := protocol.Deliver{FileID: 5, Feed: "F", Name: "big/file.bin", CRC: crc32.ChecksumIEEE(payload)}
	if ack := sendFrom(t, conn, m, payload); !ack.OK {
		t.Fatalf("ack = %+v", ack)
	}
	got, err := os.ReadFile(filepath.Join(dest, "big", "file.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("content differs (%d bytes, want %d)", len(got), len(payload))
	}
	if err := conn.Call(protocol.Hello{Role: "server"}); err != nil {
		t.Fatal(err)
	}
}

// A streamed file that fails its CRC leaves no temp, no file and no
// OnFile call, and the next frame on the Conn is served.
func TestStreamedDeliverBadChecksum(t *testing.T) {
	w := startWatched(t, Options{Name: "s"})
	conn := dial(t, w.Daemon)
	payload := pattern(600 << 10)
	m := protocol.Deliver{FileID: 6, Name: "f.bin", CRC: crc32.ChecksumIEEE(payload) ^ 1}
	if ack := sendFrom(t, conn, m, payload); ack.OK || ack.Error != "checksum mismatch" {
		t.Fatalf("bad stream answered %+v", ack)
	}
	w.expectNothing(t)
	if err := conn.Call(protocol.Hello{Role: "server"}); err != nil {
		t.Fatal(err)
	}
}

// A sender that hangs up mid-payload leaves its temp only while the
// bytes are arriving: afterwards there is no temp, no file and no
// OnFile call.
func TestStreamedDeliverSenderHangsUp(t *testing.T) {
	w := startWatched(t, Options{Name: "s"})
	conn := dial(t, w.Daemon)
	payload := pattern(1 << 20)
	pr, pw := io.Pipe()
	sent := make(chan error, 1)
	go func() {
		m := protocol.Deliver{FileID: 7, Name: "f.bin", CRC: crc32.ChecksumIEEE(payload)}
		sent <- conn.SendFrom(m, pr, int64(len(payload)))
	}()
	if _, err := pw.Write(payload[:len(payload)/2]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the half-sent file in its temp", func() bool {
		fi, err := os.Stat(filepath.Join(w.dest, ".bistro-tmp-f.bin"))
		return err == nil && fi.Size() > 0
	})
	conn.Close()
	pw.CloseWithError(errors.New("sender gone"))
	if err := <-sent; err == nil {
		t.Fatal("SendFrom over a closed Conn succeeded")
	}
	waitFor(t, "the temp removed", func() bool { return len(w.entries(t)) == 0 })
	w.expectNothing(t)
}

// Refusals that read none of the payload — a duplicate file id, a bad
// name — keep the Conn in frame sync: the next Deliver is written.
func TestRefusedDeliverKeepsFrameSync(t *testing.T) {
	w := startWatched(t, Options{Name: "s", DedupByID: true})
	conn := dial(t, w.Daemon)
	first := []byte("first copy")
	if err := conn.Call(protocol.Deliver{FileID: 1, Name: "a.bin", Data: first, CRC: crc32.ChecksumIEEE(first)}); err != nil {
		t.Fatal(err)
	}
	big := pattern(600 << 10)
	crc := crc32.ChecksumIEEE(big)
	if ack := sendFrom(t, conn, protocol.Deliver{FileID: 1, Name: "a.bin", CRC: crc}, big); !ack.OK {
		t.Fatalf("duplicate answered %+v, want an OK", ack)
	}
	if ack := sendFrom(t, conn, protocol.Deliver{FileID: 2, Name: "../evil.bin", CRC: crc}, big); ack.OK || !strings.Contains(ack.Error, "invalid path") {
		t.Fatalf("escaping name answered %+v, want an invalid-path refusal", ack)
	}
	if ack := sendFrom(t, conn, protocol.Deliver{FileID: 3, Name: "b.bin", CRC: crc}, big); !ack.OK {
		t.Fatalf("deliver after two refusals answered %+v", ack)
	}
	if got, _ := os.ReadFile(filepath.Join(w.dest, "a.bin")); !bytes.Equal(got, first) {
		t.Fatalf("the duplicate rewrote a.bin (%d bytes)", len(got))
	}
	if got, _ := os.ReadFile(filepath.Join(w.dest, "b.bin")); !bytes.Equal(got, big) {
		t.Fatalf("b.bin holds %d bytes, want %d", len(got), len(big))
	}
	if got := w.entries(t); len(got) != 2 {
		t.Fatalf("dest holds %v, want a.bin and b.bin", got)
	}
	if n, dups := w.files.Load(), w.DuplicatesSuppressed(); n != 2 || dups != 1 {
		t.Fatalf("OnFile fired %d times with %d duplicates suppressed, want 2 and 1", n, dups)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
