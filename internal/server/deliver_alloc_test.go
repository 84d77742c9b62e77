package server

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"bistro/internal/backoff"
	"bistro/internal/diskfault"
	"bistro/internal/protocol"
	"bistro/internal/subclient"
	"bistro/internal/transport"
)

// deliverCost is the heap bytes and objects one acknowledged push of f
// by tcpTransport to host costs, sender and receiver together (both are
// in this process), averaged over runs after two warm-up rounds.
func deliverCost(t *testing.T, host string, f transport.File, runs int) (bytesPer, objectsPer float64) {
	t.Helper()
	tr := newTCPTransport(5*time.Second, nil, backoff.Policy{})
	defer tr.close()
	round := func() {
		if err := tr.deliver(host, f); err != nil {
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

// parentSubscriber listens and serves Deliver frames the way the
// subscriber daemon did before every file streamed: the payload read
// into memory by Recv, checked, and written through a random temp name.
// It returns the listen address.
func parentSubscriber(t *testing.T, dir string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn *protocol.Conn) {
				defer conn.Close()
				for {
					msg, err := conn.Recv()
					if err != nil {
						return
					}
					m := msg.(protocol.Deliver)
					ack := protocol.Ack{OK: true}
					if crc32.ChecksumIEEE(m.Data) != m.CRC || parentWrite(filepath.Join(dir, filepath.FromSlash(m.Name)), m.Data) != nil {
						ack = protocol.Ack{Error: "refused"}
					}
					if conn.Send(ack) != nil {
						return
					}
				}
			}(protocol.NewConn(c))
		}
	}()
	return ln.Addr().String()
}

func parentWrite(dst string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(dst), ".bistro-rx-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), dst)
	}
	if werr != nil {
		os.Remove(tmp.Name())
	}
	return werr
}

// TestDeliverAllocs pins what one warm push to a subscriber daemon
// costs: a file streamed from staging goes socket-to-file on both ends
// through pooled buffers, so a 16 MiB push allocates under 64 KiB all
// told (the chunked transfer it replaced made a 256 KiB buffer per
// file on the sender alone), and a file pushed from memory allocates no
// more heap objects than it did when the daemon read payloads into
// memory first.
func TestDeliverAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations distort the counts")
	}
	dest := t.TempDir()
	d, err := subclient.Start("127.0.0.1:0", subclient.Options{Name: "wh", DestDir: dest, OnFile: func(string) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	parent := parentSubscriber(t, t.TempDir())
	staged := filepath.Join(t.TempDir(), "staged.bin")
	for _, tc := range []struct {
		size   int
		stream bool
		limit  float64 // bytes allocated per push
		runs   int
	}{
		{4 << 10, false, 64 << 10, 50},
		{1 << 20, false, 64 << 10, 20},
		{16 << 20, true, 64 << 10, 10},
	} {
		data := bytes.Repeat([]byte("bistro!\n"), tc.size/8)
		f := transport.File{FileID: 1, Feed: "F", Name: "in/F/f.bin", CRC: crc32.ChecksumIEEE(data), Size: int64(len(data))}
		if tc.stream {
			if err := os.WriteFile(staged, data, 0o644); err != nil {
				t.Fatal(err)
			}
			f.Stored = func() (io.ReadCloser, error) { return diskfault.OS().Open(staged) }
		} else {
			f.Data = data
		}
		gotBytes, gotObjects := deliverCost(t, d.Addr(), f, tc.runs)
		name := fmt.Sprintf("%dKiB", tc.size>>10)
		if tc.stream {
			t.Logf("%s streamed: %.0f B, %.1f objects per push", name, gotBytes, gotObjects)
		} else {
			parentBytes, parentObjects := deliverCost(t, parent, f, tc.runs)
			t.Logf("%s from memory: %.0f B, %.1f objects per push (in-memory receive %.0f B, %.1f objects)",
				name, gotBytes, gotObjects, parentBytes, parentObjects)
			if gotObjects > parentObjects+0.5 {
				t.Errorf("%s: %.1f objects per push, the in-memory receive allocated %.1f", name, gotObjects, parentObjects)
			}
		}
		if gotBytes > tc.limit {
			t.Errorf("%s: %.0f bytes allocated per push, want <= %.0f", name, gotBytes, tc.limit)
		}
	}
}
