package server

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bistro/internal/protocol"
	"bistro/internal/sourceclient"
	"bistro/internal/subclient"
)

// TestNoDescriptorLeft pushes files end to end through a server, a
// source and a subscriber daemon in this process, with one deposit
// refused on its CRC and one delivery failing on a staged file that
// vanished, then stops all three: every descriptor they opened must be
// closed. A file handle of diskfault.OS() has no finalizer, so a path
// that forgets a Close leaks its descriptor for good.
func TestNoDescriptorLeft(t *testing.T) {
	fds := func() []string {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd: %v", err)
		}
		var out []string
		for _, e := range ents {
			target, _ := os.Readlink(filepath.Join("/proc/self/fd", e.Name()))
			out = append(out, e.Name()+" -> "+target)
		}
		return out
	}
	// The network poller's own descriptors open on first use and stay.
	if ln, err := net.Listen("tcp", "127.0.0.1:0"); err == nil {
		ln.Close()
	}
	fds()
	before := fds()

	var received atomic.Int64
	daemon, err := subclient.Start("127.0.0.1:0", subclient.Options{
		Name:    "wh",
		DestDir: t.TempDir(),
		OnFile:  func(string) { received.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer daemon.Stop()
	s := newServer(t, fmt.Sprintf(`
feed CPU { pattern "CPU_POLL%%i_%%Y%%m%%d%%H%%M.txt" }
subscriber wh { host "%s" dest "in" subscribe CPU }
`, daemon.Addr()), func(o *Options) {
		o.Listen = "127.0.0.1:0"
		o.ExpiryInterval = -1
		o.MonitorInterval = -1
	})
	src, err := sourceclient.Dial(s.Addr(), "poller", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	const files = 200
	data := bytes.Repeat([]byte("bistro!\n"), 4<<10/8)
	for i := 0; i < files; i++ {
		if err := src.Upload(fmt.Sprintf("CPU_POLL%d_201009250451.txt", i), data); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "delivery receipts", func() bool {
		return received.Load() == files && s.Store().DeliveredCount("wh") == files
	})

	// A deposit whose bytes fail their CRC is refused, its temp removed.
	conn, err := protocol.Dial(s.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Call(protocol.Hello{Role: "source", Name: "liar"}); err != nil {
		t.Fatal(err)
	}
	err = conn.SendUpload(protocol.Upload{Name: "CPU_POLL999_201009250451.txt", Data: data, CRC: 1})
	if err == nil {
		err = conn.RecvAck()
	}
	if !protocol.Refused(err) {
		t.Fatalf("upload with a wrong CRC: %v, want a refusal", err)
	}
	conn.Close()

	// A delivery of a staged file that is gone fails its job.
	meta, ok := s.Store().File(1)
	if !ok {
		t.Fatal("no receipt for file 1")
	}
	if err := os.Remove(filepath.Join(s.stage, filepath.FromSlash(meta.StagedPath))); err != nil {
		t.Fatal(err)
	}
	s.Engine().EnqueueFile(meta)
	waitFor(t, "the failed delivery", func() bool { return s.Engine().Stats()["wh"].Failures == 1 })

	src.Close()
	s.Stop()
	daemon.Stop()
	// Closed connections' descriptors may go a moment after Stop returns.
	deadline := time.Now().Add(5 * time.Second)
	after := fds()
	for len(after) != len(before) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		after = fds()
	}
	if len(after) != len(before) {
		t.Errorf("%d descriptors open after, %d before:\nafter:\n%s\nbefore:\n%s",
			len(after), len(before), strings.Join(after, "\n"), strings.Join(before, "\n"))
	}
}
