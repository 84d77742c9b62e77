package protocol

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math/rand/v2"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// v1Conn is the wire format before payloads left the envelope: every
// message one gob value, the payload a []byte field, no preamble. It is
// the parent's Conn, kept here as the peer the version tests refuse and
// the allocation yardstick the new frames must not exceed.
type v1Conn struct {
	enc *gob.Encoder
	dec *gob.Decoder
}

type v1Envelope struct{ Msg any }

func newV1Conn(c net.Conn) *v1Conn { return &v1Conn{enc: gob.NewEncoder(c), dec: gob.NewDecoder(c)} }

func (v *v1Conn) Send(msg any) error { return v.enc.Encode(v1Envelope{Msg: msg}) }

func (v *v1Conn) Recv() (any, error) {
	var env v1Envelope
	err := v.dec.Decode(&env)
	return env.Msg, err
}

type sendRecver interface {
	Send(any) error
	Recv() (any, error)
}

// tcpPair returns the two ends of a loopback TCP connection.
func tcpPair(t *testing.T) (net.Conn, net.Conn) {
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
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	b := <-accepted
	if b == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// frameCost is the heap bytes and objects one Send+Recv of msg costs
// from tx to rx, averaged over runs after two warm-up rounds (gob's
// type definitions, the connection's buffers). The sender is one
// long-lived goroutine so the rounds themselves allocate nothing.
func frameCost(t *testing.T, tx, rx sendRecver, msg any, runs int) (bytesPer, objectsPer float64) {
	t.Helper()
	start := make(chan struct{})
	sent := make(chan error)
	defer close(start)
	go func() {
		for range start {
			sent <- tx.Send(msg)
		}
	}()
	round := func() {
		start <- struct{}{}
		got, err := rx.Recv()
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		if err := <-sent; err != nil {
			t.Fatalf("send: %v", err)
		}
		if p, ok := got.(Payloader); !ok || len(p.PayloadBytes()) != len(msg.(Payloader).PayloadBytes()) {
			t.Fatalf("received %T with the wrong payload", got)
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

// TestPayloadFrameAllocations is the unit proof of the framing: on a
// warm connection a loopback Send+Recv of an Upload and a Deliver
// allocates the payload's own buffer and under 1 KiB besides. Up to
// growStart that buffer is the payload's size; a 16 MiB payload grows
// into it from growStart (4 + 8 + 16 MiB, 1.75x). No frame allocates more heap
// objects than the all-gob v1 frame did.
func TestPayloadFrameAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations distort the counts")
	}
	for _, tc := range []struct {
		size int
		grow float64 // bytes allocated per payload byte
		runs int
	}{
		{4 << 10, 1, 50},
		{1 << 20, 1, 10},
		{16 << 20, 1.76, 3},
	} {
		limit := tc.grow*float64(tc.size) + 1<<10 // bytes allocated per frame
		data := bytes.Repeat([]byte("bistro!\n"), tc.size/8)
		for _, msg := range []any{
			Upload{Name: "BPS_poller1_2010092504.csv", Data: data, CRC: 7},
			Deliver{FileID: 42, Feed: "SNMP/BPS", Name: "SNMP/BPS/x.csv", Data: data, CRC: 7},
		} {
			name := fmt.Sprintf("%T/%dKiB", msg, tc.size>>10)
			a, b := tcpPair(t)
			gotBytes, gotObjects := frameCost(t, NewConn(a), NewConn(b), msg, tc.runs)
			a1, b1 := tcpPair(t)
			_, v1Objects := frameCost(t, newV1Conn(a1), newV1Conn(b1), msg, tc.runs)
			t.Logf("%s: %.0f B (%.3fx payload), %.1f objects (v1 %.1f)",
				name, gotBytes, gotBytes/float64(tc.size), gotObjects, v1Objects)
			if gotBytes > limit {
				t.Errorf("%s: %.0f bytes allocated per frame, want <= %.0f", name, gotBytes, limit)
			}
			if gotObjects > v1Objects+0.5 {
				t.Errorf("%s: %.1f objects per frame, v1 allocated %.1f", name, gotObjects, v1Objects)
			}
		}
	}
}

// TestWireVersionRefusedByName: this side refuses an all-gob v1 frame,
// a v2 preamble and a newer version's with "protocol: peer speaks …"; a
// v1 peer refuses our frame on its first decode and hangs up, which
// this side sees as a plain recv error, the same as any peer that hangs
// up before its first frame — no version is named without bytes.
func TestWireVersionRefusedByName(t *testing.T) {
	t.Run("v1 peer sends", func(t *testing.T) {
		a, b := tcpPair(t)
		go newV1Conn(a).Send(Hello{Role: "source", Name: "old"})
		_, err := NewConn(b).Recv()
		if err == nil || !strings.Contains(err.Error(), "protocol: peer speaks v1") {
			t.Fatalf("receiving a v1 frame: err = %v", err)
		}
	})
	t.Run("v1 peer receives", func(t *testing.T) {
		a, b := tcpPair(t)
		refused := make(chan error, 1)
		go func() {
			// What a v1 server does with a frame it cannot decode: fail
			// at once (0xBF is no gob length) and hang up.
			_, err := newV1Conn(b).Recv()
			b.Close()
			refused <- err
		}()
		conn := NewConn(a)
		conn.Timeout = 5 * time.Second
		err := conn.Call(Hello{Role: "source", Name: "new"})
		if v1err := <-refused; v1err == nil || !strings.HasPrefix(v1err.Error(), "gob: ") {
			t.Fatalf("the v1 peer decoding our frame: err = %v, want a gob error", v1err)
		}
		if err == nil || !strings.HasPrefix(err.Error(), "protocol: recv: ") || strings.Contains(err.Error(), "peer speaks") {
			t.Fatalf("calling a v1 peer: err = %v, want a plain recv error", err)
		}
	})
	t.Run("peer hangs up first", func(t *testing.T) {
		a, b := tcpPair(t)
		a.Close()
		_, err := NewConn(b).Recv()
		if err == nil || !errors.Is(err, io.EOF) || strings.Contains(err.Error(), "peer speaks") {
			t.Fatalf("err = %v, want the wrapped EOF and no version named", err)
		}
	})
	t.Run("v2 peer sends", func(t *testing.T) {
		// A v2 frame: the preamble with version 2, then a bare gob
		// envelope with no tag byte.
		var v2 bytes.Buffer
		v2.Write([]byte{preamble[0], preamble[1], preamble[2], 2})
		if err := gob.NewEncoder(&v2).Encode(&envelope{Msg: Hello{Role: "source", Name: "v2"}}); err != nil {
			t.Fatal(err)
		}
		_, err := NewConn(&memConn{Reader: &v2}).Recv()
		if want := "protocol: peer speaks wire v2, this side v3"; err == nil || err.Error() != want {
			t.Fatalf("err = %v, want %q", err, want)
		}
	})
	t.Run("newer version", func(t *testing.T) {
		a, b := tcpPair(t)
		go func() {
			a.Write([]byte{preamble[0], preamble[1], preamble[2], WireVersion + 1})
		}()
		_, err := NewConn(b).Recv()
		if want := fmt.Sprintf("protocol: peer speaks wire v%d", WireVersion+1); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("err = %v, want %q", err, want)
		}
	})
}

// TestLyingPayloadLengthAllocatesBounded: a frame declaring a payload
// far larger than what follows fails with an unexpected EOF after
// allocating no more than the growStart buffer.
func TestLyingPayloadLengthAllocatesBounded(t *testing.T) {
	in := lyingFrame(t, MaxPayload)
	var before, after runtime.MemStats
	conn := NewConn(&memConn{Reader: bytes.NewReader(in)})
	runtime.ReadMemStats(&before)
	_, err := conn.Recv()
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "unexpected EOF") {
		t.Fatalf("err = %v, want an unexpected EOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > growStart+64<<10 {
		t.Fatalf("a %d-byte lie allocated %d bytes, want <= %d", MaxPayload, got, growStart+64<<10)
	}
	if _, err := NewConn(&memConn{Reader: bytes.NewReader(lyingFrame(t, MaxPayload+1))}).Recv(); err == nil ||
		!strings.Contains(err.Error(), "outside") {
		t.Fatalf("over-cap length: err = %v", err)
	}
}

// memConn is a net.Conn reading from a fixed input and writing to a
// buffer: frames without a kernel in the path.
type memConn struct {
	io.Reader
	out bytes.Buffer
}

func (m *memConn) Write(p []byte) (int, error)    { return m.out.Write(p) }
func (*memConn) Close() error                     { return nil }
func (*memConn) LocalAddr() net.Addr              { return nil }
func (*memConn) RemoteAddr() net.Addr             { return nil }
func (*memConn) SetDeadline(time.Time) error      { return nil }
func (*memConn) SetReadDeadline(time.Time) error  { return nil }
func (*memConn) SetWriteDeadline(time.Time) error { return nil }

// frames is msgs sent on one fresh Conn: a preamble, then one frame each.
func frames(t testing.TB, msgs ...any) []byte {
	t.Helper()
	c := &memConn{Reader: strings.NewReader("")}
	conn := NewConn(c)
	for _, m := range msgs {
		if err := conn.Send(m); err != nil {
			t.Fatalf("send %T: %v", m, err)
		}
	}
	return c.out.Bytes()
}

// lyingFrame is a preamble and an Upload frame that declares n payload
// bytes, followed by ten.
func lyingFrame(t testing.TB, n int64) []byte {
	t.Helper()
	conn := NewConn(&memConn{Reader: strings.NewReader("")})
	if err := conn.send(conn.encode(Upload{Name: "x"}, n), nil); err != nil {
		t.Fatal(err)
	}
	return append(conn.c.(*memConn).out.Bytes(), "0123456789"...)
}

// gobFrame is msg's frame as a gob envelope behind tag 0, with its
// payload behind it: the frame every message but the four per-file ones
// travels in, and one those four may travel in too.
func gobFrame(t testing.TB, msg any, payload []byte) []byte {
	t.Helper()
	env := envelope{Msg: msg, Payload: int64(len(payload))}
	if p, ok := msg.(Payloader); ok {
		env.Msg = p.WithPayload(nil)
	}
	buf := bytes.NewBuffer(append(preamble[:], tagGob))
	if err := gob.NewEncoder(buf).Encode(&env); err != nil {
		t.Fatal(err)
	}
	buf.Write(payload)
	return buf.Bytes()
}

// allMessages is one value of every registered message type.
func allMessages() []any {
	return []any{
		Hello{Role: "source", Name: "poller1"},
		FileReady{Path: "BPS_poller1_2010092504.csv.gz"},
		Upload{Name: "x.csv", Data: []byte("a,b\n"), CRC: 42, Relayed: true, Epoch: 3},
		EndOfBatch{Feed: "SNMP/BPS"},
		Deliver{FileID: 7, Feed: "SNMP/BPS", Name: "f.csv", Data: []byte("zz"), CRC: 9},
		DeliverBegin{FileID: 8, Feed: "SNMP/BPS", Name: "g.csv", Size: 3, CRC: 1},
		DeliverChunk{Data: []byte("abc")},
		DeliverEnd{},
		Notify{FileID: 8, Feed: "SNMP/PPS", Name: "g.csv", Size: 123},
		Fetch{FileID: 8},
		Subscribe{Name: "wh", Host: "127.0.0.1:9", Dest: "in", Feeds: []string{"SNMP/BPS", "LOGS"},
			From: time.Date(2011, 6, 9, 0, 0, 0, 0, time.UTC), Class: "bulk"},
		Trigger{Command: "load x", Paths: []string{"a", "b"}},
		Resolve{Feed: "CPU"},
		Resolved{Node: "a", Addr: "127.0.0.1:1", Standby: "127.0.0.1:2", Owner: true, Epoch: 2},
		Rejoin{Node: "b", StandbyAddr: "127.0.0.1:3"},
		Ack{OK: false, Error: "disk full", Redirect: "127.0.0.1:4", Epoch: 5},
	}
}

// gobAhead is what encoding/gob itself allocates from a declared length
// before the bytes arrive: it sizes a message buffer, or a slice inside
// one (a type definition's field list, Trigger.Paths), up to 10 MiB,
// the chunk of its internal saferio package. The frame's own length,
// a payload's, costs growStart, which sits under it (see
// TestLyingPayloadLengthAllocatesBounded); no frame around gob can
// take gob's share away.
const gobAhead = 10 << 20

// FuzzFrame feeds arbitrary bytes to one Conn as a sequence of frames,
// received alternately with Recv and with RecvHeader followed by a
// partial read of Payload of a seeded length. Neither may panic; every
// message decoded must equal what a fresh Conn's Recv decodes from that
// message's frame alone, so nothing the Conn kept from the frames
// before can leak into it; a partial read must yield the prefix of the
// payload that a Recv-only Conn over the same bytes receives, and the
// next frame must decode as it does there, so an unread rest is
// skipped exactly; and the sequence allocates no more than twice the input plus
// what gob may allocate ahead of the wire (and 64 KiB of bookkeeping).
func FuzzFrame(f *testing.F) {
	for _, m := range allMessages() {
		f.Add(frames(f, m))
	}
	upload := frames(f, Upload{Name: "BPS_poller1_2010092504.csv", Data: bytes.Repeat([]byte("x"), 300), CRC: 1})
	f.Add(upload[:len(upload)-100]) // truncated payload
	f.Add(lyingFrame(f, 1<<29))     // lying payload length
	// A lying gob length: 9 MiB announced, nothing follows.
	f.Add(append(append([]byte{}, preamble[:]...), 0xFC, 0x00, 0x90, 0x00, 0x00))
	var v1 bytes.Buffer // a v1 peer's frame: no preamble
	if err := gob.NewEncoder(&v1).Encode(v1Envelope{Msg: Hello{Role: "source", Name: "old"}}); err != nil {
		f.Fatal(err)
	}
	f.Add(v1.Bytes())
	// Each tagged frame cut inside every field, an over-cap string
	// length, an unknown tag, and a per-file message as gob behind tag 0.
	for _, m := range taggedMessages() {
		whole := frames(f, m)
		for cut := len(preamble) + 1; cut < len(whole); cut++ {
			f.Add(whole[:cut])
		}
	}
	f.Add(binary.AppendUvarint(append(preamble[:], tagFileReady), maxString+1))
	f.Add(append(preamble[:], 5))
	f.Add(gobFrame(f, Upload{Name: "gob", CRC: 3, Relayed: true, Epoch: 2}, []byte("gob payload")))
	// Payload frames back to back, so partial reads leave rests to skip.
	f.Add(frames(f, allMessages()...))
	f.Add(frames(f,
		Upload{Name: "a", Data: bytes.Repeat([]byte("a"), 9000)},
		DeliverChunk{Data: bytes.Repeat([]byte("b"), 5000)},
		Deliver{Name: "c", Data: []byte("c")},
		Hello{Name: "after"}))
	// gob builds its per-type machinery once per process; pay that
	// before measuring.
	warm := NewConn(&memConn{Reader: bytes.NewReader(frames(f, allMessages()...))})
	for {
		if _, err := warm.Recv(); err != nil {
			break
		}
	}

	f.Fuzz(func(t *testing.T, in []byte) {
		conn := NewConn(&memConn{Reader: bytes.NewReader(in)})
		ref := NewConn(&memConn{Reader: bytes.NewReader(in)})
		rng := rand.New(rand.NewPCG(uint64(len(in)), crc64.Checksum(in, crc64.MakeTable(crc64.ISO))))
		var allocated uint64 // by the Conn alone, not by the checks between
		for i := 0; ; i++ {
			want, refErr := ref.Recv()
			var (
				msg     any
				n       int64
				partial []byte
				err     error
			)
			var before, after runtime.MemStats
			if i%2 == 0 {
				runtime.ReadMemStats(&before)
				msg, err = conn.Recv()
				runtime.ReadMemStats(&after)
			} else {
				runtime.ReadMemStats(&before)
				msg, n, err = conn.RecvHeader()
				runtime.ReadMemStats(&after)
				if err == nil && n > 0 {
					k := rng.Int64N(min(n, 1<<16) + 2)
					partial = make([]byte, k)
					var m int
					m, err = io.ReadFull(conn.Payload(), partial)
					partial = partial[:m]
					if k > n && err == io.ErrUnexpectedEOF && int64(m) == n {
						err = nil // read to the payload's end, then io.EOF
					}
				}
			}
			allocated += after.TotalAlloc - before.TotalAlloc
			if refErr != nil {
				// The same frame failed whole; a partial read may stop
				// short of the failure, but the next frame cannot pass it.
				if err == nil {
					if _, _, err = conn.RecvHeader(); err == nil {
						t.Fatalf("frame %d: Recv failed (%v), the Conn read on past it", i, refErr)
					}
				}
				break
			}
			if err != nil {
				t.Fatalf("frame %d: Recv decoded %#v, the Conn failed: %v", i, want, err)
			}
			if p, ok := want.(Payloader); ok && i%2 == 1 {
				if got := p.PayloadBytes(); !bytes.Equal(partial, got[:len(partial)]) {
					t.Fatalf("frame %d: partial payload read %q, want the prefix of %q", i, partial, got)
				}
				want = p.WithPayload(nil)
			}
			if !reflect.DeepEqual(msg, want) {
				t.Fatalf("frame %d: decoded %#v, a Recv-only Conn %#v", i, msg, want)
			}
			alone, err := NewConn(&memConn{Reader: bytes.NewReader(frames(t, msg))}).Recv()
			if err != nil || !reflect.DeepEqual(alone, msg) {
				t.Fatalf("%#v decoded from its own frame as %#v (%v)", msg, alone, err)
			}
		}
		if limit := 2*uint64(len(in)) + gobAhead + 64<<10; allocated > limit {
			t.Fatalf("%d input bytes allocated %d, want <= %d", len(in), allocated, limit)
		}
	})
}
