package server

import (
	"fmt"
	"sync"
	"time"

	"bistro/internal/backoff"
	"bistro/internal/clock"
	"bistro/internal/protocol"
	"bistro/internal/transport"
)

// compositeTransport routes subscribers with configured hosts over TCP
// and the rest to local destination directories. Routing is mutable at
// runtime (AddSubscriber).
type compositeTransport struct {
	local  *transport.LocalDir
	remote *tcpTransport

	mu    sync.RWMutex
	hosts map[string]string // subscriber -> host:port
}

// setHost registers (or clears) a subscriber's remote route.
func (c *compositeTransport) setHost(sub, host string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if host == "" {
		delete(c.hosts, sub)
		return
	}
	c.hosts[sub] = host
}

// hostOf looks up a subscriber's remote route.
func (c *compositeTransport) hostOf(sub string) (string, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	h, ok := c.hosts[sub]
	return h, ok
}

func (c *compositeTransport) Deliver(sub string, f transport.File) error {
	if host, ok := c.hostOf(sub); ok {
		return c.remote.deliver(host, f)
	}
	return c.local.Deliver(sub, f)
}

func (c *compositeTransport) Notify(sub string, f transport.File) error {
	if host, ok := c.hostOf(sub); ok {
		return c.remote.notify(host, f)
	}
	return c.local.Notify(sub, f)
}

func (c *compositeTransport) Trigger(sub string, command string, paths []string) error {
	if host, ok := c.hostOf(sub); ok {
		return c.remote.trigger(host, command, paths)
	}
	return c.local.Trigger(sub, command, paths)
}

func (c *compositeTransport) Ping(sub string) error {
	if host, ok := c.hostOf(sub); ok {
		return c.remote.ping(host)
	}
	return c.local.Ping(sub)
}

var _ transport.Transport = (*compositeTransport)(nil)

// tcpTransport is a node's one connection pool: it pushes protocol
// messages to subscriber daemons and relays uploads to the cluster
// nodes that own them, keeping one connection per host. Redials are
// gated by a per-host backoff: after a dial failure, further attempts
// inside the backoff window fail fast instead of re-paying the connect
// timeout — the caller's own retry schedule decides when to come back.
type tcpTransport struct {
	timeout time.Duration
	clk     clock.Clock
	pol     backoff.Policy

	mu    sync.Mutex // guards the hosts map only, never held across I/O
	hosts map[string]*hostConn
}

// hostConn is one host's cached connection and redial throttle. Its
// lock is held across the dial and the whole exchange — the protocol is
// strictly request/response per connection — so a slow or unreachable
// host delays only the calls addressed to it.
type hostConn struct {
	mu   sync.Mutex
	conn *protocol.Conn // nil = not connected
	// Redial throttle after a failed dial (bo nil = no failure on record).
	bo        *backoff.Backoff
	notBefore time.Time
	lastErr   error
}

func newTCPTransport(timeout time.Duration, clk clock.Clock, pol backoff.Policy) *tcpTransport {
	if clk == nil {
		clk = clock.NewReal()
	}
	return &tcpTransport{
		timeout: timeout,
		clk:     clk,
		pol:     pol.WithDefaults(),
		hosts:   make(map[string]*hostConn),
	}
}

// hostConn returns (creating on first use) host's connection state.
func (t *tcpTransport) hostConn(host string) *hostConn {
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.hosts[host]
	if h == nil {
		h = &hostConn{}
		t.hosts[host] = h
	}
	return h
}

// withConn runs fn holding the (cached) connection to host. The
// connection is kept after a success or a refusal (a
// *protocol.RemoteError: the peer answered, the stream is in frame
// sync) and dropped after any other error, which may have left it
// mid-frame, so the next call redials.
func (t *tcpTransport) withConn(host string, fn func(*protocol.Conn) error) error {
	h := t.hostConn(host)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.conn == nil {
		if h.bo != nil && t.clk.Now().Before(h.notBefore) {
			return fmt.Errorf("server: dial %s suppressed by backoff: %w", host, h.lastErr)
		}
		conn, err := protocol.Dial(host, t.timeout)
		if err != nil {
			if h.bo == nil {
				h.bo = backoff.New(t.pol, backoff.Seed(host))
			}
			h.notBefore = t.clk.Now().Add(h.bo.Next())
			h.lastErr = err
			return err
		}
		h.bo = nil // dialed fine: forget the backoff history
		conn.Timeout = t.timeout
		h.conn = conn
	}
	err := fn(h.conn)
	if err != nil && !protocol.Refused(err) {
		h.conn.Close()
		h.conn = nil
	}
	return err
}

// call sends a request and awaits the Ack.
func (t *tcpTransport) call(host string, msg any) error {
	return t.withConn(host, func(conn *protocol.Conn) error {
		return conn.Call(msg)
	})
}

// deliver pushes one file as one Deliver frame: from memory when the
// engine read it, else streamed from its stored copy, with the Ack
// awaited under the same connection hold. The stored copy is opened
// first, so one that cannot be read leaves the connection alone.
func (t *tcpTransport) deliver(host string, f transport.File) error {
	msg := protocol.Deliver{FileID: f.FileID, Feed: f.Feed, Name: f.Name, Data: f.Data, CRC: f.CRC}
	if f.Data != nil {
		return t.withConn(host, func(conn *protocol.Conn) error {
			if err := conn.SendDeliver(msg); err != nil {
				return err
			}
			return conn.RecvAck()
		})
	}
	src, err := f.Open()
	if err != nil {
		return err
	}
	defer src.Close()
	return t.withConn(host, func(conn *protocol.Conn) error {
		if err := conn.SendFrom(msg, src, f.Size); err != nil {
			return err
		}
		return conn.RecvAck()
	})
}

func (t *tcpTransport) notify(host string, f transport.File) error {
	return t.call(host, protocol.Notify{
		FileID: f.FileID,
		Feed:   f.Feed,
		Name:   f.Name,
		Size:   f.Size,
	})
}

func (t *tcpTransport) trigger(host string, command string, paths []string) error {
	return t.call(host, protocol.Trigger{Command: command, Paths: paths})
}

func (t *tcpTransport) ping(host string) error {
	return t.call(host, protocol.Hello{Role: "server", Name: "ping"})
}

// close shuts every cached connection.
func (t *tcpTransport) close() {
	t.mu.Lock()
	hosts := make([]*hostConn, 0, len(t.hosts))
	for _, h := range t.hosts {
		hosts = append(hosts, h)
	}
	t.mu.Unlock()
	for _, h := range hosts {
		h.mu.Lock()
		if h.conn != nil {
			h.conn.Close()
			h.conn = nil
		}
		h.mu.Unlock()
	}
}
