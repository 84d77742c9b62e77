package protocol

import (
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// pipePair returns two connected protocol Conns.
func pipePair(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	a, b := net.Pipe()
	return NewConn(a), NewConn(b)
}

func TestSendRecvRoundTrip(t *testing.T) {
	client, server := pipePair(t)
	defer client.Close()
	defer server.Close()

	msgs := allMessages()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, want := range msgs {
			got, err := server.Recv()
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("got %#v, want %#v", got, want)
			}
			if err := server.Send(Ack{OK: true}); err != nil {
				t.Errorf("ack: %v", err)
				return
			}
		}
	}()
	for _, m := range msgs {
		if err := client.Send(m); err != nil {
			t.Fatalf("send %T: %v", m, err)
		}
		reply, err := client.Recv()
		if err != nil {
			t.Fatalf("recv ack: %v", err)
		}
		if ack, ok := reply.(Ack); !ok || !ack.OK {
			t.Fatalf("reply = %#v", reply)
		}
	}
	wg.Wait()
}

func TestMessageTypesSurviveEncoding(t *testing.T) {
	client, server := pipePair(t)
	defer client.Close()
	defer server.Close()

	go client.Send(Deliver{FileID: 99, Feed: "F", Name: "n", Data: []byte{1, 2, 3}, CRC: 77})
	got, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	d, ok := got.(Deliver)
	if !ok {
		t.Fatalf("got %T", got)
	}
	if d.FileID != 99 || d.Feed != "F" || len(d.Data) != 3 || d.CRC != 77 {
		t.Fatalf("deliver = %+v", d)
	}
}

func TestCallSuccessAndError(t *testing.T) {
	client, server := pipePair(t)
	defer client.Close()
	defer server.Close()

	go func() {
		server.Recv()
		server.Send(Ack{OK: true})
		server.Recv()
		server.Send(Ack{OK: false, Error: "disk full"})
	}()
	if err := client.Call(FileReady{Path: "x"}); err != nil {
		t.Fatalf("call 1: %v", err)
	}
	err := client.Call(FileReady{Path: "y"})
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("call 2 err = %v", err)
	}
}

func TestOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		conn := NewConn(c)
		defer conn.Close()
		msg, err := conn.Recv()
		if err != nil {
			t.Errorf("recv: %v", err)
			return
		}
		if h, ok := msg.(Hello); !ok || h.Name != "sub1" {
			t.Errorf("hello = %#v", msg)
		}
		conn.Send(Ack{OK: true})
	}()

	conn, err := Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Call(Hello{Role: "subscriber", Name: "sub1"}); err != nil {
		t.Fatal(err)
	}
	<-done
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", 100*time.Millisecond); err == nil {
		t.Fatal("expected dial error")
	}
}

func TestRecvTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, _ := ln.Accept()
		if c != nil {
			defer c.Close()
			time.Sleep(500 * time.Millisecond)
		}
	}()
	conn, err := Dial(ln.Addr().String(), 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Recv(); err == nil {
		t.Fatal("expected timeout")
	}
}

func TestSubscribeSurvivesEncoding(t *testing.T) {
	client, server := pipePair(t)
	defer client.Close()
	defer server.Close()

	from := time.Date(2011, 6, 9, 0, 0, 0, 0, time.UTC)
	go client.Send(Subscribe{
		Name: "analyst", Host: "127.0.0.1:9", Dest: "in",
		Feeds: []string{"SNMP/BPS", "LOGS"}, From: from, Class: "bulk",
	})
	got, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	s, ok := got.(Subscribe)
	if !ok {
		t.Fatalf("got %T", got)
	}
	if s.Name != "analyst" || len(s.Feeds) != 2 || !s.From.Equal(from) || s.Class != "bulk" {
		t.Fatalf("subscribe = %+v", s)
	}
}
