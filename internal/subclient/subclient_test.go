package subclient

import (
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
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

func TestDeliverRejectsEscapingPath(t *testing.T) {
	d := startDaemon(t, Options{Name: "s"})
	conn := dial(t, d)
	for _, p := range []string{"../evil", "/abs"} {
		if err := conn.Call(deliver(p, []byte("x"))); err == nil {
			t.Fatalf("path %q accepted", p)
		}
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

func TestChunkedStreamDelivery(t *testing.T) {
	dest := t.TempDir()
	d := startDaemon(t, Options{Name: "s", DestDir: dest})
	conn := dial(t, d)

	payload := make([]byte, 300<<10) // forces several 100KB chunks below
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	if err := conn.Send(protocol.DeliverBegin{
		FileID: 5, Feed: "F", Name: "big/file.bin",
		Size: int64(len(payload)), CRC: crc32.ChecksumIEEE(payload),
	}); err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(payload); off += 100 << 10 {
		end := off + 100<<10
		if end > len(payload) {
			end = len(payload)
		}
		if err := conn.Send(protocol.DeliverChunk{Data: payload[off:end]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := conn.Send(protocol.DeliverEnd{}); err != nil {
		t.Fatal(err)
	}
	reply, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ack, ok := reply.(protocol.Ack); !ok || !ack.OK {
		t.Fatalf("reply = %#v", reply)
	}
	got, err := os.ReadFile(filepath.Join(dest, "big", "file.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(payload) {
		t.Fatalf("size = %d", len(got))
	}
	for i := range got {
		if got[i] != payload[i] {
			t.Fatalf("content mismatch at %d", i)
		}
	}
	// The connection is reusable afterwards.
	if err := conn.Call(protocol.Hello{Role: "server"}); err != nil {
		t.Fatal(err)
	}
}

func TestChunkedStreamBadChecksum(t *testing.T) {
	d := startDaemon(t, Options{Name: "s", DestDir: t.TempDir()})
	conn := dial(t, d)
	payload := []byte("streamed")
	if err := conn.Send(protocol.DeliverBegin{
		FileID: 6, Name: "f.bin", Size: int64(len(payload)), CRC: 0xBAD,
	}); err != nil {
		t.Fatal(err)
	}
	conn.Send(protocol.DeliverChunk{Data: payload})
	conn.Send(protocol.DeliverEnd{})
	reply, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ack, ok := reply.(protocol.Ack); !ok || ack.OK {
		t.Fatalf("bad stream acked OK: %#v", reply)
	}
	// Connection still usable (framing intact).
	if err := conn.Call(protocol.Hello{Role: "server"}); err != nil {
		t.Fatal(err)
	}
}
