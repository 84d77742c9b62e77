package protocol

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"
)

// TestSendFromWritesSendsFrame: a payload streamed from a reader puts
// on the wire exactly the bytes Send writes for the same message
// carrying it in memory, at sizes below, at and above one buffer.
func TestSendFromWritesSendsFrame(t *testing.T) {
	for _, size := range []int{0, 1, 256 << 10, 600 << 10} {
		data := bytes.Repeat([]byte("bistro!\n"), size/8+1)[:size]
		msg := Deliver{FileID: 7, Feed: "BPS", Name: "in/BPS/f.csv", Data: data, CRC: 9}
		want := frames(t, Hello{Role: "server"}, msg)

		c := &memConn{Reader: strings.NewReader("")}
		conn := NewConn(c)
		if err := conn.Send(Hello{Role: "server"}); err != nil {
			t.Fatal(err)
		}
		if err := conn.SendFrom(Deliver{FileID: 7, Feed: "BPS", Name: "in/BPS/f.csv", CRC: 9}, bytes.NewReader(data), int64(size)); err != nil {
			t.Fatalf("%d bytes: %v", size, err)
		}
		if !bytes.Equal(c.out.Bytes(), want) {
			t.Fatalf("%d bytes: SendFrom wrote %d bytes unlike Send's %d", size, c.out.Len(), len(want))
		}
	}
}

// TestSendFromShortSource: a source that ends before the declared
// length is an error, never a frame that silently ends early.
func TestSendFromShortSource(t *testing.T) {
	c := &memConn{Reader: strings.NewReader("")}
	conn := NewConn(c)
	err := conn.SendFrom(Deliver{Name: "f"}, strings.NewReader("short"), 10)
	if err == nil || !strings.Contains(err.Error(), "after 5 of 10 bytes") {
		t.Fatalf("err = %v, want a short-source error", err)
	}
}

// TestStreamedPayloadOverMaxPayload: MaxPayload bounds only payloads
// held in memory. A header declaring more passes SendFrom and
// RecvHeader and its bytes stream through Payload; ReadPayload and Recv
// refuse it. The source is cut short so nothing near a gigabyte moves.
func TestStreamedPayloadOverMaxPayload(t *testing.T) {
	const n = MaxPayload + 1
	c := &memConn{Reader: strings.NewReader("")}
	err := NewConn(c).SendFrom(Deliver{Name: "big"}, strings.NewReader("abc"), n)
	if err == nil || !strings.Contains(err.Error(), "after 3 of") || strings.Contains(err.Error(), "cap") {
		t.Fatalf("SendFrom: err = %v, want only the cut-short source refused", err)
	}
	wire := c.out.Bytes()

	conn := NewConn(&memConn{Reader: bytes.NewReader(wire)})
	msg, got, err := conn.RecvHeader()
	if err != nil || got != n || msg.(Deliver).Name != "big" {
		t.Fatalf("RecvHeader: %v, n=%d, err=%v", msg, got, err)
	}
	if data, err := io.ReadAll(conn.Payload()); string(data) != "abc" || err != io.ErrUnexpectedEOF {
		t.Fatalf("Payload: %q, %v", data, err)
	}

	conn = NewConn(&memConn{Reader: bytes.NewReader(wire)})
	if _, _, err := conn.RecvHeader(); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.ReadPayload(); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("ReadPayload: err = %v, want the in-memory cap", err)
	}
	if _, err := NewConn(&memConn{Reader: bytes.NewReader(wire)}).Recv(); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("Recv: err = %v, want the in-memory cap", err)
	}
}

// TestSendFromDeadlinePerBuffer: Timeout bounds each buffer a slow
// reader takes, not the whole payload, so a transfer that keeps moving
// outlasts it; one that stops moving fails.
func TestSendFromDeadlinePerBuffer(t *testing.T) {
	const timeout = 200 * time.Millisecond
	client, server := pipePair(t)
	defer client.Close()
	defer server.Close()
	client.Timeout = timeout
	data := bytes.Repeat([]byte("x"), 6*256<<10)
	done := make(chan error, 1)
	go func() {
		done <- client.SendFrom(Deliver{Name: "f"}, bytes.NewReader(data), int64(len(data)))
	}()
	_, n, err := server.RecvHeader()
	if err != nil || n != int64(len(data)) {
		t.Fatalf("header: n=%d err=%v", n, err)
	}
	start := time.Now()
	buf := make([]byte, 256<<10)
	for i := 0; i < 6; i++ {
		time.Sleep(timeout / 3)
		if _, err := io.ReadFull(server.Payload(), buf); err != nil {
			t.Fatalf("buffer %d: %v", i, err)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("a transfer that kept moving for %v failed: %v", time.Since(start), err)
	}

	go func() {
		done <- client.SendFrom(Deliver{Name: "f"}, bytes.NewReader(data), int64(len(data)))
	}()
	if _, _, err := server.RecvHeader(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil {
		t.Fatal("a transfer nobody read completed")
	}
}
