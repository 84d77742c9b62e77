package server

import (
	"hash/crc32"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bistro/internal/backoff"
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
