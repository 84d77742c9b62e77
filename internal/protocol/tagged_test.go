package protocol

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// taggedMessages is allMessages' value of each per-file message: the
// four that travel as fixed binary layouts.
func taggedMessages() []any {
	var out []any
	for _, m := range allMessages() {
		switch m.(type) {
		case Upload, Deliver, Ack, FileReady:
			out = append(out, m)
		}
	}
	return out
}

// roundAllocs is the heap objects one round costs, sender and receiver
// together, on warm Conns: send runs on tx in a long-lived goroutine,
// recv on rx, so the rounds themselves allocate nothing.
func roundAllocs(t *testing.T, tx, rx *Conn, send, recv func(*Conn) error) float64 {
	t.Helper()
	start := make(chan struct{})
	sent := make(chan error)
	defer close(start)
	go func() {
		for range start {
			sent <- send(tx)
		}
	}()
	round := func() {
		start <- struct{}{}
		if err := recv(rx); err != nil {
			t.Fatalf("recv: %v", err)
		}
		if err := <-sent; err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	round()
	round()
	return testing.AllocsPerRun(200, round)
}

// TestPerFileFrameAllocs pins what a file's frames cost on warm
// loopback Conns, both ends together: an Upload through Send and
// RecvHeader + Payload allocates its name and the received value's
// box; a Deliver through SendFrom and RecvHeader its feed, its name and
// the box; an Ack through SendAck and RecvAck nothing.
func TestPerFileFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations distort the counts")
	}
	data := bytes.Repeat([]byte("bistro!\n"), 4<<10/8)
	buf := make([]byte, len(data))
	drain := func(conn *Conn) error {
		_, n, err := conn.RecvHeader()
		if err == nil && n != int64(len(data)) {
			err = fmt.Errorf("%d-byte payload, want %d", n, len(data))
		}
		if err == nil {
			_, err = io.ReadFull(conn.Payload(), buf)
		}
		return err
	}
	var upload any = Upload{Name: "BPS_poller1_2010092504.csv", Data: data, CRC: 7, Relayed: true, Epoch: 3}
	var deliver Payloader = Deliver{FileID: 42, Feed: "SNMP/BPS", Name: "SNMP/BPS/x.csv", CRC: 7}
	src := bytes.NewReader(data)
	for _, tc := range []struct {
		name       string
		limit      float64
		send, recv func(*Conn) error
	}{
		{"Upload", 2, func(c *Conn) error { return c.Send(upload) }, drain},
		{"Deliver", 3, func(c *Conn) error {
			src.Reset(data)
			return c.SendFrom(deliver, src, int64(len(data)))
		}, drain},
		{"Ack", 0, func(c *Conn) error { return c.SendAck(Ack{OK: true, Epoch: 9}) }, (*Conn).RecvAck},
	} {
		a, b := tcpPair(t)
		got := roundAllocs(t, NewConn(a), NewConn(b), tc.send, tc.recv)
		t.Logf("%s: %.0f objects per round trip", tc.name, got)
		if got > tc.limit {
			t.Errorf("%s: %.0f objects per round trip, want <= %.0f", tc.name, got, tc.limit)
		}
	}
}

// TestTypedSendsAllocateNothing: SendUpload and SendDeliver write a
// per-file message on a warm Conn without boxing it, so the sending end
// of a file's frame allocates nothing.
func TestTypedSendsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations distort the counts")
	}
	c := &memConn{Reader: strings.NewReader("")}
	conn := NewConn(c)
	data := bytes.Repeat([]byte("bistro!\n"), 4<<10/8)
	name, feed := "BPS_poller1_2010092504.csv", "SNMP/BPS"
	for _, tc := range []struct {
		name string
		send func() error
	}{
		{"SendUpload", func() error { return conn.SendUpload(Upload{Name: name, Data: data, CRC: 7, Epoch: 3}) }},
		{"SendDeliver", func() error { return conn.SendDeliver(Deliver{FileID: 42, Feed: feed, Name: name, Data: data, CRC: 7}) }},
	} {
		got := testing.AllocsPerRun(100, func() {
			c.out.Reset()
			if err := tc.send(); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 {
			t.Errorf("%s: %v objects per send, want 0", tc.name, got)
		}
	}
}

// goldenMessages is the fixed value of each per-file message that
// testdata/tagged.golden holds the frame of.
var goldenMessages = map[string]any{
	"Upload":    Upload{Name: "BPS_poller1_2010092504.csv", Data: []byte("a,b\n"), CRC: 0xDEADBEEF, Relayed: true, Epoch: 300},
	"Deliver":   Deliver{FileID: 1 << 40, Feed: "SNMP/BPS", Name: "in/BPS/f.csv", Data: []byte("zz"), CRC: 0x01020304},
	"Ack":       Ack{OK: false, Error: "fenced", Redirect: "127.0.0.1:9461", Epoch: 5},
	"FileReady": FileReady{Path: "BPS_poller1_2010092504.csv.gz"},
}

// TestTaggedGolden pins each per-file layout byte for byte:
// testdata/tagged.golden holds, for one fixed value of each message,
// the hex of its frame after the preamble (tag, fields, then the raw
// payload), and those bytes decode back to the value. Changing a
// layout is a wire change: bump WireVersion and edit the file by hand.
func TestTaggedGolden(t *testing.T) {
	f, err := os.Open("testdata/tagged.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden := map[string][]byte{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, digits, _ := strings.Cut(line, " ")
		b, err := hex.DecodeString(strings.ReplaceAll(digits, " ", ""))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		golden[name] = b
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for name, m := range goldenMessages {
		want, ok := golden[name]
		if !ok {
			t.Errorf("%s: no golden frame", name)
			continue
		}
		if got := frames(t, m)[len(preamble):]; !bytes.Equal(got, want) {
			t.Errorf("%s frame:\n got % x\nwant % x", name, got, want)
		}
		back, err := NewConn(&memConn{Reader: bytes.NewReader(append(preamble[:], want...))}).Recv()
		if err != nil || !reflect.DeepEqual(back, m) {
			t.Errorf("%s: golden frame decodes to %#v (%v)", name, back, err)
		}
	}
}

// TestTaggedFrameCutShort: a tagged frame cut anywhere after its tag is
// io.ErrUnexpectedEOF; the stream ending before a tag is a plain EOF.
func TestTaggedFrameCutShort(t *testing.T) {
	for _, m := range taggedMessages() {
		whole := frames(t, m)
		for cut := len(preamble); cut < len(whole); cut++ {
			_, err := NewConn(&memConn{Reader: bytes.NewReader(whole[:cut])}).Recv()
			want := io.ErrUnexpectedEOF
			if cut == len(preamble) {
				want = io.EOF
			}
			if !errors.Is(err, want) {
				t.Fatalf("%T cut after %d of %d bytes: err = %v, want %v", m, cut, len(whole), err, want)
			}
		}
	}
	_, err := NewConn(&memConn{Reader: bytes.NewReader(append(preamble[:], 5))}).Recv()
	if want := "protocol: recv: unknown frame tag 5"; err == nil || err.Error() != want {
		t.Fatalf("unknown tag: err = %v, want %q", err, want)
	}
}

// TestStringCap: a sender refuses a string over maxString before it
// writes a byte, so its next frame goes out whole, preamble included;
// a receiver refuses a longer length by name without allocating for it.
func TestStringCap(t *testing.T) {
	c := &memConn{Reader: strings.NewReader("")}
	conn := NewConn(c)
	long := strings.Repeat("x", maxString+1)
	for _, m := range []any{Upload{Name: long}, Deliver{Feed: long}, Ack{Redirect: long}, FileReady{Path: long}} {
		if err := conn.Send(m); err == nil || !strings.Contains(err.Error(), "string over the") {
			t.Fatalf("%T with an over-cap string: err = %v", m, err)
		}
	}
	if err := conn.SendAck(Ack{Error: long}); err == nil || !strings.Contains(err.Error(), "string over the") {
		t.Fatalf("SendAck with an over-cap string: err = %v", err)
	}
	if c.out.Len() != 0 {
		t.Fatalf("refused frames wrote %d bytes", c.out.Len())
	}
	atCap := FileReady{Path: strings.Repeat("y", maxString)}
	if err := conn.Send(atCap); err != nil {
		t.Fatal(err)
	}
	if got, err := NewConn(&memConn{Reader: bytes.NewReader(c.out.Bytes())}).Recv(); err != nil || got != atCap {
		t.Fatalf("a string at the cap after refusals: %v", err)
	}

	lie := binary.AppendUvarint(append(preamble[:], tagFileReady), maxString+1)
	conn = NewConn(&memConn{Reader: bytes.NewReader(append(lie, "abc"...))})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := conn.Recv()
	runtime.ReadMemStats(&after)
	if want := fmt.Sprintf("protocol: recv: %d-byte string over the %d-byte cap", maxString+1, maxString); err == nil || err.Error() != want {
		t.Fatalf("over-cap length: err = %v, want %q", err, want)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("refusing an over-cap length allocated %d bytes", got)
	}
}

// TestRecvAckRefusal: RecvAck returns a refusal as a *RemoteError that
// carries the whole Ack under the old text, and the Conn reads on in
// frame sync; a gob Ack behind tag 0 is read as one too, and a reply of
// another type is named.
func TestRecvAckRefusal(t *testing.T) {
	refusal := Ack{Error: "fenced: stale epoch 1 (node is at 5)", Redirect: "127.0.0.1:9", Epoch: 5}
	conn := NewConn(&memConn{Reader: bytes.NewReader(frames(t, refusal, Ack{OK: true}, Hello{Name: "h"}))})
	var remote *RemoteError
	if err := conn.RecvAck(); !errors.As(err, &remote) || remote.Ack != refusal ||
		err.Error() != "protocol: remote error: "+refusal.Error {
		t.Fatalf("refusal: err = %v", err)
	}
	if err := conn.RecvAck(); err != nil {
		t.Fatalf("the Ack after a refusal: %v", err)
	}
	if err := conn.RecvAck(); err == nil || err.Error() != "protocol: expected Ack, got protocol.Hello" {
		t.Fatalf("a Hello reply: err = %v", err)
	}
	conn = NewConn(&memConn{Reader: bytes.NewReader(gobFrame(t, Ack{Error: "via gob"}, nil))})
	if err := conn.RecvAck(); !errors.As(err, &remote) || remote.Ack.Error != "via gob" {
		t.Fatalf("a gob Ack: err = %v", err)
	}
}

// FuzzTaggedMatchesGob: for any field values, each per-file message
// received from its tagged frame is exactly (reflect.DeepEqual) the
// message received from the same value's gob frame behind tag 0, and
// the value sent; an Ack read by RecvAck is that value too.
func FuzzTaggedMatchesGob(f *testing.F) {
	f.Add("BPS_poller1_2010092504.csv", "SNMP/BPS", uint64(42), uint64(3), uint32(7), true, []byte("a,b\n"))
	f.Add("", "", uint64(0), uint64(0), uint32(0), false, []byte(nil))
	f.Add("\xff\xfe\x00", "\xc3\x28", uint64(math.MaxUint64), uint64(math.MaxUint64), uint32(math.MaxUint32), true, []byte{0})
	f.Add("x", "", uint64(math.MaxUint64), uint64(1), uint32(1), false, bytes.Repeat([]byte("z"), 5000))
	f.Fuzz(func(t *testing.T, s1, s2 string, id, epoch uint64, crc uint32, flag bool, data []byte) {
		if len(s1) > maxString || len(s2) > maxString {
			t.Skip("over the string cap: refused unsent")
		}
		if len(data) == 0 {
			data = nil // a frame without a payload is received without one
		}
		for _, m := range []any{
			Upload{Name: s1, Data: data, CRC: crc, Relayed: flag, Epoch: epoch},
			Deliver{FileID: id, Feed: s1, Name: s2, Data: data, CRC: crc},
			Ack{OK: flag, Error: s1, Redirect: s2, Epoch: epoch},
			FileReady{Path: s2},
		} {
			tagged, err := NewConn(&memConn{Reader: bytes.NewReader(frames(t, m))}).Recv()
			if err != nil {
				t.Fatalf("%#v from its tagged frame: %v", m, err)
			}
			var payload []byte
			if p, ok := m.(Payloader); ok {
				payload = p.PayloadBytes()
			}
			viaGob, err := NewConn(&memConn{Reader: bytes.NewReader(gobFrame(t, m, payload))}).Recv()
			if err != nil {
				t.Fatalf("%#v from its gob frame: %v", m, err)
			}
			if !reflect.DeepEqual(tagged, viaGob) || !reflect.DeepEqual(tagged, m) {
				t.Fatalf("sent %#v\ntagged %#v\ngob    %#v", m, tagged, viaGob)
			}
			if ack, ok := m.(Ack); ok {
				err := NewConn(&memConn{Reader: bytes.NewReader(frames(t, m))}).RecvAck()
				var remote *RemoteError
				if ack.OK && err != nil || !ack.OK && (!errors.As(err, &remote) || remote.Ack != ack) {
					t.Fatalf("RecvAck of %#v: %v", ack, err)
				}
			}
		}
	})
}
