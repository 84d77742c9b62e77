package server

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"bistro/internal/clock"
	"bistro/internal/diskfault"
	"bistro/internal/landing"
	"bistro/internal/protocol"
)

// loopback returns the two ends of a loopback TCP connection.
func loopback(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server = <-accepted
	if server == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// uploadCost is the heap bytes and objects one acknowledged Upload of
// data costs, averaged over runs after two warm-up rounds, with serve
// answering on the far end of a loopback connection.
func uploadCost(t *testing.T, serve func(*protocol.Conn), data []byte, runs int) (bytesPer, objectsPer float64) {
	t.Helper()
	c, s := loopback(t)
	go serve(protocol.NewConn(s))
	conn := protocol.NewConn(c)
	up := protocol.Upload{Name: "CPU_POLL1_201009250451.txt", Data: data, CRC: crc32.ChecksumIEEE(data)}
	round := func() {
		if err := conn.Call(up); err != nil {
			t.Fatal(err)
		}
	}
	round()
	round()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs),
		float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// parentServe is the receive path uploads took before they streamed:
// the whole payload read into memory by Recv, checked, and written into
// landing with WriteFile.
func parentServe(dir string, ingest landing.Ingest) func(*protocol.Conn) {
	fsys := diskfault.OS()
	return func(conn *protocol.Conn) {
		for {
			msg, err := conn.Recv()
			if err != nil {
				return
			}
			m := msg.(protocol.Upload)
			ack := protocol.Ack{OK: true}
			rel := filepath.FromSlash(m.Name)
			dst := filepath.Join(dir, rel)
			switch {
			case crc32.ChecksumIEEE(m.Data) != m.CRC:
				ack = protocol.Ack{Error: "checksum mismatch"}
			case fsys.MkdirAll(filepath.Dir(dst), 0o755) != nil,
				diskfault.WriteFile(fsys, dst, m.Data, 0o644) != nil,
				ingest(rel) != nil:
				ack = protocol.Ack{Error: "deposit failed"}
			}
			if conn.Send(ack) != nil {
				return
			}
		}
	}
}

// TestUploadAllocs pins what one warm loopback upload costs the server:
// the payload streams from the socket into landing, so a 16 MiB upload
// allocates no buffer for it (under 64 KiB all told, where reading it
// into memory first grew 8 + 16 MiB past the Conn's kept 4 MiB), and
// no upload allocates more heap objects than that in-memory path did.
// Ingest here just removes the landed file.
func TestUploadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations distort the counts")
	}
	s := newServer(t, testConfig, nil)
	dir := t.TempDir()
	remove := func(rel string) error { return os.Remove(filepath.Join(dir, rel)) }
	land, err := landing.New(dir, remove, clock.NewReal(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s.land = land
	for _, tc := range []struct {
		size  int
		limit float64 // bytes allocated per upload
		runs  int
	}{
		{4 << 10, 64 << 10, 50},
		{1 << 20, 64 << 10, 20},
		{16 << 20, 64 << 10, 10},
	} {
		data := bytes.Repeat([]byte("bistro!\n"), tc.size/8)
		gotBytes, gotObjects := uploadCost(t, s.serveConn, data, tc.runs)
		parentBytes, parentObjects := uploadCost(t, parentServe(dir, remove), data, tc.runs)
		name := fmt.Sprintf("%dKiB", tc.size>>10)
		t.Logf("%s: %.0f B, %.1f objects per upload (in-memory path %.0f B, %.1f objects)",
			name, gotBytes, gotObjects, parentBytes, parentObjects)
		if gotBytes > tc.limit {
			t.Errorf("%s: %.0f bytes allocated per upload, want <= %.0f", name, gotBytes, tc.limit)
		}
		if tc.size < 16<<20 && gotObjects > parentObjects+0.5 {
			t.Errorf("%s: %.1f objects per upload, the in-memory path allocated %.1f", name, gotObjects, parentObjects)
		}
	}
}

// landingTemps lists the upload temps anywhere under landing.
func landingTemps(t *testing.T, s *Server) []string {
	t.Helper()
	var temps []string
	filepath.WalkDir(s.land.Dir(), func(path string, d fs.DirEntry, err error) error {
		if err == nil && strings.HasPrefix(d.Name(), landing.TmpPrefix) {
			temps = append(temps, path)
		}
		return nil
	})
	return temps
}

// TestStaleLandingTempSwept: an upload temp a crash left in landing is
// removed at start-up and never ingested; a source's own dot-file is
// left alone.
func TestStaleLandingTempSwept(t *testing.T) {
	s, err := New(Options{Config: mustConfig(t, testConfig), Root: t.TempDir(), ScanInterval: -1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	dir := s.land.Dir()
	stale := []string{
		filepath.Join(dir, landing.TmpPrefix+"BPS_poller1_201009250451.csv"),
		filepath.Join(dir, "2010", "09", landing.TmpPrefix+"CPU_POLL1_201009250451.txt"),
	}
	own := filepath.Join(dir, ".BPS_poller1_201009250452.csv.part")
	for _, p := range append(stale, own) {
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte("half a fi"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if temps := landingTemps(t, s); len(temps) != 0 {
		t.Fatalf("stale temps survived start-up: %v", temps)
	}
	if _, err := os.Stat(own); err != nil {
		t.Fatalf("a source's own dot-file was touched: %v", err)
	}
	if n, err := s.land.ScanOnce(); n != 0 || err != nil {
		t.Fatalf("scan after start-up ingested %d (%v), want 0", n, err)
	}
	if files := s.Store().Stats().Files; files != 0 {
		t.Fatalf("%d files ingested, want 0", files)
	}
}

// truncConn passes the first limit bytes written through and swallows
// the rest: a peer whose upload stalls mid-payload.
type truncConn struct {
	net.Conn
	limit int
}

func (c *truncConn) Write(p []byte) (int, error) {
	n := min(len(p), c.limit)
	c.limit -= n
	if _, err := c.Conn.Write(p[:n]); err != nil {
		return 0, err
	}
	return len(p), nil
}

// TestHalfReceivedUploadInvisible: while an upload is parked
// mid-payload only its temp exists, which a landing scan skips; when
// the peer hangs up, the temp goes and nothing lands or is receipted.
func TestHalfReceivedUploadInvisible(t *testing.T) {
	s := newServer(t, testConfig, func(o *Options) { o.Listen = "127.0.0.1:0" })
	raw, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	const name = "BPS_poller1_201009250451.csv"
	data := bytes.Repeat([]byte("a,b\n"), 256<<10)
	conn := protocol.NewConn(&truncConn{Conn: raw, limit: len(data) / 2})
	if err := conn.Send(protocol.Upload{Name: name, Data: data, CRC: crc32.ChecksumIEEE(data)}); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(s.land.Dir(), landing.TmpPrefix+name)
	waitFor(t, "half the upload in its landing temp", func() bool {
		fi, err := os.Stat(tmp)
		return err == nil && fi.Size() > 0
	})
	if n, err := s.land.ScanOnce(); n != 0 || err != nil {
		t.Fatalf("scan during the upload ingested %d (%v), want 0", n, err)
	}
	if _, err := os.Stat(filepath.Join(s.land.Dir(), name)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("the final name exists mid-upload: %v", err)
	}
	raw.Close()
	waitFor(t, "the temp of the abandoned upload removed", func() bool {
		_, err := os.Stat(tmp)
		return errors.Is(err, fs.ErrNotExist)
	})
	if entries, _ := os.ReadDir(s.land.Dir()); len(entries) != 0 {
		t.Fatalf("landing holds %v", entries)
	}
	if files := s.Store().Stats().Files; files != 0 {
		t.Fatalf("%d files receipted, want 0", files)
	}
}

// TestRefusedUploadsKeepFrameSync: an upload refused before its payload
// is read (fenced) and one refused after (CRC) both leave the
// connection in frame sync: each NACK is followed by the next upload's
// ACK on the same Conn.
func TestRefusedUploadsKeepFrameSync(t *testing.T) {
	_, nodeB, _, feedB := startTwoNodeCluster(t)
	nodeB.shard.ObserveEpoch(5)
	conn, err := protocol.Dial(nodeB.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	call := func(up protocol.Upload) protocol.Ack {
		t.Helper()
		if err := conn.Send(up); err != nil {
			t.Fatal(err)
		}
		reply, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		ack, ok := reply.(protocol.Ack)
		if !ok {
			t.Fatalf("expected Ack, got %T", reply)
		}
		return ack
	}
	big := bytes.Repeat([]byte("z"), 256<<10)
	good := func(minute int) protocol.Upload {
		data := []byte(fmt.Sprintf("good %d\n", minute))
		return protocol.Upload{Name: fmt.Sprintf("%s_2010092504%02d.txt", feedB, minute), Data: data, CRC: crc32.ChecksumIEEE(data)}
	}
	fenced := protocol.Upload{Name: feedB + "_201009250450.txt", Data: big, CRC: crc32.ChecksumIEEE(big), Relayed: true, Epoch: 1}
	if ack := call(fenced); ack.OK || !strings.Contains(ack.Error, "fenced") {
		t.Fatalf("stale-epoch upload answered %+v, want a fencing NACK", ack)
	}
	if ack := call(good(51)); !ack.OK {
		t.Fatalf("upload after a fenced one answered %+v", ack)
	}
	corrupt := protocol.Upload{Name: feedB + "_201009250452.txt", Data: big, CRC: crc32.ChecksumIEEE(big) ^ 1}
	if ack := call(corrupt); ack.OK || ack.Error != "checksum mismatch" {
		t.Fatalf("corrupted upload answered %+v, want a checksum NACK", ack)
	}
	if ack := call(good(53)); !ack.OK {
		t.Fatalf("upload after a corrupted one answered %+v", ack)
	}
	waitFor(t, "both good uploads ingested", func() bool { return nodeB.Store().Stats().Files == 2 })
	if temps := landingTemps(t, nodeB); len(temps) != 0 {
		t.Fatalf("temps left in landing: %v", temps)
	}
}
