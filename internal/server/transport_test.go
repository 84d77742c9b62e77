package server

import (
	"errors"
	"hash/crc32"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bistro/internal/backoff"
	"bistro/internal/diskfault"
	"bistro/internal/protocol"
	"bistro/internal/subclient"
	"bistro/internal/transport"
)

// blackHole is a TCP endpoint that accepts connections and never
// answers: a request to it stalls for the transport's full timeout.
type blackHole struct {
	ln       net.Listener
	accepted chan struct{}
}

func newBlackHole(t *testing.T) *blackHole {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b := &blackHole{ln: ln, accepted: make(chan struct{}, 1)}
	go func() {
		var held []net.Conn
		defer func() {
			for _, c := range held {
				c.Close()
			}
		}()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			held = append(held, c)
			select {
			case b.accepted <- struct{}{}:
			default:
			}
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return b
}

// Regression: the transport-wide lock used to be held across the dial
// and the whole request/response exchange, so one stalled subscriber
// host delayed pushes to every other host by its full timeout.
func TestTCPTransportSlowHostDoesNotBlockOthers(t *testing.T) {
	const timeout = 3 * time.Second
	hole := newBlackHole(t)
	dest := t.TempDir()
	healthy, err := subclient.Start("127.0.0.1:0", subclient.Options{Name: "ok", DestDir: dest})
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Stop()

	tr := newTCPTransport(timeout, nil, backoff.Policy{})
	defer tr.close()

	stalled := make(chan error, 1)
	go func() { stalled <- tr.ping(hole.ln.Addr().String()) }()
	select {
	case <-hole.accepted:
	case <-time.After(timeout):
		t.Fatal("black-holed host never saw the connection")
	}

	data := []byte("1,2,3\n")
	start := time.Now()
	err = tr.deliver(healthy.Addr(), transport.File{
		FileID: 1, Feed: "BPS", Name: "in/BPS/f1.csv", Data: data,
		CRC: crc32.ChecksumIEEE(data), Size: int64(len(data)),
	})
	took := time.Since(start)
	if err != nil {
		t.Fatalf("deliver to healthy host: %v", err)
	}
	if took > timeout/3 {
		t.Fatalf("deliver to healthy host took %v behind a stalled host (timeout %v)", took, timeout)
	}
	select {
	case err := <-stalled:
		t.Fatalf("black-holed call returned before the delivery finished: %v", err)
	default:
	}
	if got, err := os.ReadFile(filepath.Join(dest, "in", "BPS", "f1.csv")); err != nil || string(got) != string(data) {
		t.Fatalf("delivered content = %q, %v", got, err)
	}
	if err := <-stalled; err == nil {
		t.Fatal("black-holed call succeeded")
	}
}

// A failed dial is throttled per host: the dead host's backoff window
// suppresses its own redials and leaves calls to other hosts alone.
func TestTCPTransportPerHostDialBackoff(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	healthy, err := subclient.Start("127.0.0.1:0", subclient.Options{Name: "ok", DestDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Stop()

	tr := newTCPTransport(time.Second, nil, backoff.Policy{Base: time.Minute, Max: time.Minute, NoJitter: true})
	defer tr.close()
	if err := tr.ping(dead); err == nil {
		t.Fatal("ping to a closed port succeeded")
	}
	err = tr.ping(dead)
	if err == nil || !strings.Contains(err.Error(), "suppressed by backoff") {
		t.Fatalf("second ping inside the backoff window = %v, want a suppressed dial", err)
	}
	for i := 0; i < 3; i++ {
		if err := tr.ping(healthy.Addr()); err != nil {
			t.Fatalf("ping %d to healthy host: %v", i, err)
		}
	}
}

// answeringSubscriber serves Deliver frames on every connection it
// accepts, reading each payload to its end and answering ack. It
// returns its address and the count of connections it accepted.
func answeringSubscriber(t *testing.T, ack protocol.Ack) (string, *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	accepted := new(atomic.Int32)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			go func(conn *protocol.Conn) {
				defer conn.Close()
				for {
					if _, _, err := conn.RecvHeader(); err != nil {
						return
					}
					if _, err := io.Copy(io.Discard, conn.Payload()); err != nil {
						return
					}
					if conn.SendAck(ack) != nil {
						return
					}
				}
			}(protocol.NewConn(c))
		}
	}()
	return ln.Addr().String(), accepted
}

// TestRefusedDeliveryKeepsConnection pins the pool's rule: a refusal
// keeps the connection (the subscriber answered, the stream is in
// frame sync), and a push cut mid-payload drops it, so the next one
// goes out on a fresh connection. TestRefusedRelaySentOnce pins the
// same rule for relays.
func TestRefusedDeliveryKeepsConnection(t *testing.T) {
	data := []byte("1,2,3\n")
	f := transport.File{FileID: 1, Feed: "BPS", Name: "in/BPS/f1.csv", Data: data,
		CRC: crc32.ChecksumIEEE(data), Size: int64(len(data))}

	t.Run("refused", func(t *testing.T) {
		host, accepted := answeringSubscriber(t, protocol.Ack{Error: "disk full"})
		tr := newTCPTransport(5*time.Second, nil, backoff.Policy{})
		defer tr.close()
		for i := 0; i < 5; i++ {
			var refused *protocol.RemoteError
			if err := tr.deliver(host, f); !errors.As(err, &refused) {
				t.Fatalf("delivery %d: err = %v, want the refusal", i, err)
			}
		}
		if n := accepted.Load(); n != 1 {
			t.Fatalf("five refused deliveries used %d connections, want 1", n)
		}
	})

	t.Run("cut mid-payload", func(t *testing.T) {
		host, accepted := answeringSubscriber(t, protocol.Ack{OK: true})
		tr := newTCPTransport(5*time.Second, nil, backoff.Policy{})
		defer tr.close()
		// The staged file ends 700 KiB short of the size its receipt
		// declares: the push is cut after the first 300 KiB.
		staged := filepath.Join(t.TempDir(), "staged.bin")
		if err := os.WriteFile(staged, make([]byte, 300<<10), 0o644); err != nil {
			t.Fatal(err)
		}
		cut := transport.File{FileID: 2, Feed: "BPS", Name: "in/BPS/f2.bin", Size: 1 << 20,
			Stored: func() (io.ReadCloser, error) { return diskfault.OS().Open(staged) }}
		if err := tr.deliver(host, cut); err == nil || !strings.Contains(err.Error(), "payload cut") {
			t.Fatalf("cut delivery: err = %v, want the cut payload", err)
		}
		if err := tr.deliver(host, f); err != nil {
			t.Fatalf("delivery after a cut one: %v", err)
		}
		if n := accepted.Load(); n != 2 {
			t.Fatalf("a cut delivery and the next used %d connections, want 2", n)
		}
	})
}
