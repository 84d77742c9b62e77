package cluster

import (
	"bytes"
	"errors"
	"hash/crc32"
	"io"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"bistro/internal/diskfault"
	"bistro/internal/protocol"
	"bistro/internal/receipts"
)

// bootedShipper is a shipper with its stream to st up.
func bootedShipper(t *testing.T, st *Standby) *Shipper {
	t.Helper()
	owner, err := receipts.Open(t.TempDir(), receipts.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { owner.Close() })
	sh := NewShipper(st.Addr(), ShipperOptions{Node: "a"})
	t.Cleanup(sh.Close)
	if err := sh.Bootstrap(owner, t.TempDir(), nil); err != nil {
		t.Fatal(err)
	}
	return sh
}

// dialHello opens a raw replication connection to st and says hello.
func dialHello(t *testing.T, st *Standby) *protocol.Conn {
	t.Helper()
	conn, err := protocol.Dial(st.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := conn.Send(RepHello{Node: "a"}); err != nil {
		t.Fatal(err)
	}
	if ack := recvRepAck(t, conn); !ack.OK {
		t.Fatalf("hello refused: %s", ack.Error)
	}
	return conn
}

func recvRepAck(t *testing.T, conn *protocol.Conn) RepAck {
	t.Helper()
	reply, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	ack, ok := reply.(RepAck)
	if !ok {
		t.Fatalf("reply %T, want RepAck", reply)
	}
	return ack
}

// shippedFiles lists every file under the standby's staging and archive
// trees, temps included.
func shippedFiles(st *Standby) []string {
	var files []string
	for _, dir := range []string{"staging", "archive"} {
		filepath.WalkDir(filepath.Join(st.Root(), dir), func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				files = append(files, path)
			}
			return nil
		})
	}
	return files
}

// eventually polls cond for up to five seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplicationShipAllocs pins what shipping a warm 16 MiB staged
// file costs: it streams from the owner's open file into the standby's
// spool through pooled buffers, so one ship allocates under 64 KiB on
// both ends together, where reading it into memory allocated at least
// the file's size on each end.
func TestReplicationShipAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations distort the counts")
	}
	st, _, _ := startTestStandby(t, diskfault.NoSync(diskfault.OS()))
	sh := bootedShipper(t, st)
	data := bytes.Repeat([]byte("bistro!\n"), (16<<20)/8)
	path := filepath.Join(t.TempDir(), "big.bin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	crc := crc32.ChecksumIEEE(data)
	ship := func() {
		f, err := diskfault.OS().Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := sh.ShipFile("f/big.bin", f, int64(len(data)), crc); err != nil {
			t.Fatal(err)
		}
	}
	for range 3 { // the pools' buffers on each P, the standby's directories
		ship()
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		ship()
	}
	runtime.ReadMemStats(&after)
	perShip := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("16 MiB ship: %.0f bytes allocated on both ends together", perShip)
	if perShip >= 64<<10 {
		t.Errorf("a 16 MiB ship allocated %.0f bytes, want < 64 KiB", perShip)
	}
	got, err := os.ReadFile(filepath.Join(st.Root(), "staging", "f", "big.bin"))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("shipped copy differs (%d bytes, %v)", len(got), err)
	}
}

// A RepFile header may declare more than protocol.MaxPayload: the
// standby spools it like any other, allocating nothing for its length,
// and refuses it only when the payload is cut short — leaving neither
// the file nor its temp.
func TestStandbyStreamsOversizedHeader(t *testing.T) {
	st, _, _ := startTestStandby(t, nil)
	conn := dialHello(t, st)
	pr, pw := io.Pipe()
	sent := make(chan error, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	go func() {
		err := conn.SendFrom(RepFile{Seq: 1, Path: "f/huge"}, pr, protocol.MaxPayload+1)
		pr.CloseWithError(err) // a frame cut early fails the write below
		sent <- err
	}()
	const head = 1 << 20
	if _, err := pw.Write(make([]byte, head)); err != nil {
		t.Fatal(err)
	}
	eventually(t, "the first MiB in the standby's spool", func() bool {
		files := shippedFiles(st)
		if len(files) != 1 || !strings.HasPrefix(filepath.Base(files[0]), diskfault.TmpPrefix) {
			return false
		}
		fi, err := os.Stat(files[0])
		return err == nil && fi.Size() == head
	})
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Errorf("spooling the first MiB of a %d-byte payload allocated %d bytes", protocol.MaxPayload+1, grew)
	}
	pw.CloseWithError(errors.New("source gone"))
	if err := <-sent; err == nil {
		t.Fatal("SendFrom of a cut payload succeeded")
	}
	conn.Close()
	eventually(t, "the cut spool removed", func() bool { return len(shippedFiles(st)) == 0 })
}

// A shipped file the standby refuses (a CRC mismatch, an unsafe name,
// or one arriving after Detach) is nacked and leaves no file and no
// temp.
func TestStandbyRefusalsLeaveNothing(t *testing.T) {
	data := []byte("payload")
	crc := crc32.ChecksumIEEE(data)
	t.Run("crc", func(t *testing.T) {
		st, _, alarms := startTestStandby(t, nil)
		sh := bootedShipper(t, st)
		if err := sh.ShipFile("f/bad", bytes.NewReader(data), int64(len(data)), crc+1); err == nil {
			t.Fatal("a CRC mismatch was acked")
		}
		if files := shippedFiles(st); len(files) != 0 || alarms.count() == 0 {
			t.Fatalf("files left %v, alarms %v", files, alarms.all())
		}
	})
	t.Run("unsafe", func(t *testing.T) {
		st, _, _ := startTestStandby(t, nil)
		sh := bootedShipper(t, st)
		if err := sh.ShipFile("../escape", bytes.NewReader(data), int64(len(data)), crc); err == nil {
			t.Fatal("an escaping name was acked")
		}
		if files := shippedFiles(st); len(files) != 0 {
			t.Fatalf("files left %v", files)
		}
		if _, err := os.Stat(filepath.Join(st.Root(), "escape")); err == nil {
			t.Fatal("the escaping name was written")
		}
	})
	t.Run("detached", func(t *testing.T) {
		st, _, _ := startTestStandby(t, nil)
		if err := st.Detach(); err != nil {
			t.Fatal(err)
		}
		owner, standby := net.Pipe()
		go st.serve(protocol.NewConn(standby))
		conn := protocol.NewConn(owner)
		defer conn.Close()
		if err := conn.SendFrom(RepFile{Seq: 1, Path: "f/late", CRC: crc}, bytes.NewReader(data), int64(len(data))); err != nil {
			t.Fatal(err)
		}
		if ack := recvRepAck(t, conn); ack.OK {
			t.Fatal("a RepFile after Detach was acked")
		}
		if files := shippedFiles(st); len(files) != 0 {
			t.Fatalf("files left %v", files)
		}
	})
}

// A payload stalled on one owner connection holds no lock: a heartbeat
// on another connection is applied at once.
func TestStalledPayloadDoesNotDelayHeartbeat(t *testing.T) {
	st, _, _ := startTestStandby(t, nil)
	stalled := dialHello(t, st)
	pr, pw := io.Pipe()
	defer pw.Close()
	go func() { pr.CloseWithError(stalled.SendFrom(RepFile{Seq: 1, Path: "f/slow"}, pr, 1<<20)) }()
	if _, err := pw.Write(make([]byte, 4<<10)); err != nil {
		t.Fatal(err)
	}
	eventually(t, "the stalled spool", func() bool { return len(shippedFiles(st)) == 1 })

	other := dialHello(t, st)
	start := time.Now()
	if err := other.Send(RepHeartbeat{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if ack := recvRepAck(t, other); !ack.OK {
		t.Fatalf("heartbeat refused: %s", ack.Error)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("heartbeat took %v behind a stalled payload", took)
	}
	pw.CloseWithError(errors.New("source gone"))
	stalled.Close()
	eventually(t, "the stalled spool removed", func() bool { return len(shippedFiles(st)) == 0 })
}

// StartStandby removes the temps a crash left in its staging, archive
// and receipts trees — spools that were never acked — and nothing else.
func TestStandbyStartSweepsTemps(t *testing.T) {
	root := t.TempDir()
	var temps, keep []string
	for _, dir := range []string{"staging/f", "archive/f", "receipts"} {
		dir = filepath.Join(root, filepath.FromSlash(dir))
		temps = append(temps, filepath.Join(dir, diskfault.TmpPrefix+"spool"))
		keep = append(keep, filepath.Join(dir, "kept"))
	}
	for _, p := range append(temps, keep...) {
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := StartStandby("127.0.0.1:0", StandbyOptions{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, p := range temps {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("stale temp %s survived start-up (%v)", p, err)
		}
	}
	for _, p := range keep {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("start-up removed %s: %v", p, err)
		}
	}
}
