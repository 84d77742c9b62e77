// Package protocol defines Bistro's lightweight communication
// interfaces (SIGMOD'11 §4.1): the source-side protocol that lets feed
// producers announce deposited files and mark end-of-batch punctuation,
// and the subscriber-side protocol used for push delivery, hybrid
// push-pull notification, remote trigger invocation, and acknowledged
// receipt.
//
// Messages travel as gob-encoded envelopes over a stream connection;
// a message that carries file content (a Payloader) leaves the content
// out of its envelope and sends it raw right behind it, so a file is
// never a gob value (docs/PROTOCOL.md, "Framing"). The protocol is
// deliberately small: the paper's point is that the *existence* of
// these messages — "this file is ready", "this batch is complete",
// "this file was delivered" — is what removes the need for expensive
// directory polling, not any sophistication in their encoding.
package protocol

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"time"

	"bistro/internal/diskfault"
)

// Hello identifies a connecting peer.
type Hello struct {
	// Role is "source" or "subscriber".
	Role string
	// Name is the peer's configured name.
	Name string
}

// FileReady announces that a source deposited a file into a landing
// directory (shared-filesystem sources).
type FileReady struct {
	// Path is relative to the landing directory.
	Path string
}

// Upload carries file content from a remote source that has no shared
// filesystem with the server.
type Upload struct {
	// Name is the filename as the source would have deposited it.
	Name string
	// Data is the file content.
	Data []byte
	// CRC is the IEEE CRC32 of Data.
	CRC uint32
	// Relayed marks an upload forwarded peer-to-peer by a cluster node
	// that did not own the file's feed; the receiver must not forward
	// it again (shard maps briefly disagree during failover).
	Relayed bool
	// Epoch, on a relayed upload, is the forwarding node's cluster
	// ownership epoch. A receiver whose epoch is newer refuses the
	// write (fencing): a partitioned old owner relaying with its stale
	// map must not deposit through nodes that have moved on. Zero means
	// "no epoch" and is never fenced.
	Epoch uint64
}

// EndOfBatch is source punctuation: all files for the current batch of
// the named feed (or of every feed the source contributes to, when
// Feed is empty) have been deposited.
type EndOfBatch struct {
	Feed string
}

// Deliver pushes one staged file to a subscriber.
type Deliver struct {
	// FileID is the server receipt id (echoed in acknowledgments).
	FileID uint64
	// Feed is the leaf feed path.
	Feed string
	// Name is the destination-relative path to store the file under.
	Name string
	// Data is the staged content.
	Data []byte
	// CRC is the IEEE CRC32 of Data.
	CRC uint32
}

// DeliverBegin, DeliverChunk and DeliverEnd were the chunked transfer
// of large files. Nothing sends or handles them (a subscriber daemon
// refuses one); benchmark/layerwalk.go still encodes them.
type DeliverBegin struct {
	FileID uint64
	Feed   string
	Name   string
	Size   int64
	CRC    uint32
}

// DeliverChunk: see DeliverBegin.
type DeliverChunk struct {
	Data []byte
}

// DeliverEnd: see DeliverBegin.
type DeliverEnd struct{}

// Notify tells a hybrid push-pull subscriber that a file is available
// for retrieval at its convenience.
type Notify struct {
	FileID uint64
	Feed   string
	Name   string
	Size   int64
}

// Fetch retrieves a previously announced file (hybrid pull).
type Fetch struct {
	FileID uint64
}

// Subscribe registers (or re-registers) a subscriber at runtime —
// "SUBSCRIBE <feeds> [FROM <ts>]". With a non-zero From the server
// additionally starts a replay session streaming archived history from
// that timestamp through the dedicated replay partition, handing off
// to live delivery at the watermark.
type Subscribe struct {
	// Name is the subscriber's identity (receipts are recorded under
	// it, so reconnecting with the same name resumes exactly-once).
	Name string
	// Host is the subscriber daemon address for pushed delivery; empty
	// means local-directory delivery at Dest.
	Host string
	// Dest is the destination path prefix.
	Dest string
	// Feeds are feed or feed-group paths to subscribe to.
	Feeds []string
	// From, when non-zero, requests catch-up of history older than the
	// staging window, served from the archive.
	From time.Time
	// Class is the scheduling class ("interactive", "bulk" or empty).
	Class string
}

// Trigger asks the subscriber daemon to run a registered command on
// its host (remote trigger invocation).
type Trigger struct {
	Command string
	Paths   []string
}

// Resolve asks a cluster node which node owns a feed. Any live node
// can answer: the shard map is static configuration plus promotions,
// so clients locate shards without a coordinator.
type Resolve struct {
	// Feed is a feed or feed-group path ("" resolves the local node
	// itself).
	Feed string
}

// Resolved answers Resolve.
type Resolved struct {
	// Node is the owning node's name ("" on an unclustered server).
	Node string
	// Addr is the owning node's protocol address.
	Addr string
	// Standby is the owner's standby replication address, if any.
	Standby string
	// Owner reports whether the answering node is itself the owner.
	Owner bool
	// Epoch is the answering node's cluster ownership epoch (0 on an
	// unclustered server). When several nodes answer differently
	// mid-failover, the highest epoch has the freshest map.
	Epoch uint64
}

// Ack acknowledges any request.
type Ack struct {
	OK    bool
	Error string
	// Redirect, set with OK=false on a Subscribe to a non-owning
	// cluster node, carries the owning node's address so the client can
	// re-issue the request there.
	Redirect string
	// Epoch, when non-zero, is the responder's cluster ownership epoch
	// — on a fencing refusal it tells a stale sender how far behind it
	// is, and on a Rejoin ack it seeds the new standby's fence floor.
	Epoch uint64
}

// Rejoin asks a serving cluster node to adopt the sender as its new
// warm standby: the receiver re-seeds the standby listening at
// StandbyAddr from its live store (fresh snapshot + staged payload
// walk + archive backlog) and flips it to live shipping, all while it
// keeps serving. Sent by a recovered or brand-new node re-entering the
// cluster (server.RejoinAsStandby).
type Rejoin struct {
	// Node is the rejoining node's name.
	Node string
	// StandbyAddr is the replication listen address of the rejoiner's
	// fresh standby.
	StandbyAddr string
}

func init() {
	gob.Register(Hello{})
	gob.Register(FileReady{})
	gob.Register(Upload{})
	gob.Register(EndOfBatch{})
	gob.Register(Deliver{})
	gob.Register(DeliverBegin{})
	gob.Register(DeliverChunk{})
	gob.Register(DeliverEnd{})
	gob.Register(Notify{})
	gob.Register(Fetch{})
	gob.Register(Subscribe{})
	gob.Register(Trigger{})
	gob.Register(Resolve{})
	gob.Register(Resolved{})
	gob.Register(Rejoin{})
	gob.Register(Ack{})
}

// Payloader is a message whose bulk bytes travel raw behind its gob
// envelope instead of inside it. Upload, Deliver and DeliverChunk
// implement it here (Send sends one from memory, SendFrom from a
// reader); the cluster's replication messages implement it
// too, which is why it is exported.
//
// A received Payloader's bytes may sit in the receiving Conn's own
// buffer: they are valid until the next Recv on that Conn (the rule of
// bufio.Scanner.Bytes). A caller that keeps them longer copies them.
type Payloader interface {
	// PayloadBytes returns the bytes to send raw.
	PayloadBytes() []byte
	// WithPayload returns a copy of the message carrying b instead.
	WithPayload(b []byte) any
}

func (m Upload) PayloadBytes() []byte           { return m.Data }
func (m Upload) WithPayload(b []byte) any       { m.Data = b; return m }
func (m Deliver) PayloadBytes() []byte          { return m.Data }
func (m Deliver) WithPayload(b []byte) any      { m.Data = b; return m }
func (m DeliverChunk) PayloadBytes() []byte     { return m.Data }
func (m DeliverChunk) WithPayload(b []byte) any { m.Data = b; return m }

// WireVersion is the frame format this package speaks. Version 1 was
// all-gob: the payload rode inside the envelope and there was no
// preamble.
const WireVersion = 2

// preamble opens each direction of a connection: three magic bytes and
// the wire version. 0xBF is no valid gob length prefix (it would
// announce a 65-byte integer), so an all-gob v1 peer fails its first
// decode at once instead of waiting for bytes.
var preamble = [4]byte{0xBF, 'B', 'F', WireVersion}

const (
	// MaxPayload caps a payload held in memory: Send refuses to write a
	// longer one, and Recv and ReadPayload refuse to read one. A payload
	// that streams (SendFrom, Payload) may be any length.
	MaxPayload = 1 << 30
	// growStart is the most a payload buffer allocates before the bytes
	// it is sized for have arrived (see readGrown), and so the most a
	// Conn keeps between frames.
	growStart = 4 << 20
)

// envelope wraps messages so gob can carry any registered type.
// Payload is the length of the raw bytes that follow it on the wire.
type envelope struct {
	Msg     any
	Payload int64
}

// Conn is a message-oriented wrapper over a stream connection. One
// goroutine may Send while another Recvs; two Sends (or two Recvs) must
// not overlap. After an error from Send, SendFrom, Recv, RecvHeader,
// ReadPayload or a Payload read the stream may be mid-frame: close the
// Conn.
type Conn struct {
	c   net.Conn
	r   *bufio.Reader // every byte read, shared by gob and the payloads
	enc *gob.Encoder
	dec *gob.Decoder
	// out holds the encoded envelope being sent (behind the preamble on
	// the first frame); vec and bufs pair it with the payload for one
	// writev. They and the two envelopes live here so that a frame
	// allocates no more than gob does.
	out     bytes.Buffer
	vec     [2][]byte
	bufs    net.Buffers
	sendEnv envelope
	recvEnv envelope
	src     io.LimitedReader // SendFrom's source
	// in is the buffer payloads start in (see Recv): kept from frame to
	// frame, so a warm connection reads a payload of up to growStart
	// bytes without allocating.
	in []byte
	// body is the payload of the frame last received (see RecvHeader).
	body     payloadBody
	greeted  bool // our preamble is written
	verified bool // the peer's preamble is checked
	// Timeout bounds each send/receive (0 = none).
	Timeout time.Duration
}

// NewConn wraps an established connection.
func NewConn(c net.Conn) *Conn {
	conn := &Conn{c: c, r: bufio.NewReader(c)}
	conn.body.r = conn.r
	conn.enc = gob.NewEncoder(&conn.out)
	// A bufio.Reader is an io.ByteReader, so gob reads it as is instead
	// of wrapping the socket in a read-ahead buffer of its own, which
	// would swallow the payload bytes behind an envelope.
	conn.dec = gob.NewDecoder(conn.r)
	return conn
}

// Dial connects to a Bistro endpoint.
func Dial(addr string, timeout time.Duration) (*Conn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("protocol: dial %s: %w", addr, err)
	}
	conn := NewConn(c)
	conn.Timeout = timeout
	return conn, nil
}

// Send writes one message: its gob envelope and, for a Payloader, the
// payload's raw bytes, in one write.
func (c *Conn) Send(msg any) error {
	if err := c.armWrite(); err != nil {
		return err
	}
	var payload []byte
	if p, ok := msg.(Payloader); ok {
		payload = p.PayloadBytes()
	}
	if len(payload) > MaxPayload {
		return fmt.Errorf("protocol: send %T: %d-byte payload over the %d-byte cap", msg, len(payload), MaxPayload)
	}
	if err := c.encode(msg, int64(len(payload))); err != nil {
		return err
	}
	var err error
	if len(payload) == 0 {
		_, err = c.c.Write(c.out.Bytes())
	} else {
		c.vec = [2][]byte{c.out.Bytes(), payload}
		c.bufs = c.vec[:]
		_, err = c.bufs.WriteTo(c.c) // drops its references as it writes
	}
	if err != nil {
		return fmt.Errorf("protocol: send: %w", err)
	}
	return nil
}

// SendFrom writes the frame Send writes for msg carrying the n bytes r
// yields, of any length, through diskfault.CopySocket's pooled buffer
// with the write deadline re-armed per buffer: Timeout bounds a stalled
// transfer, not a large one. If r fails or ends early the frame is cut:
// close the Conn.
func (c *Conn) SendFrom(msg Payloader, r io.Reader, n int64) error {
	if n < 0 {
		return fmt.Errorf("protocol: send %T: negative payload length %d", msg, n)
	}
	if err := c.armWrite(); err != nil {
		return err
	}
	if err := c.encode(msg, n); err != nil {
		return err
	}
	if _, err := c.c.Write(c.out.Bytes()); err != nil {
		return fmt.Errorf("protocol: send: %w", err)
	}
	c.src = io.LimitedReader{R: r, N: n}
	sent, err := diskfault.CopySocket((*armedWriter)(c), &c.src)
	c.src = io.LimitedReader{}
	if err == nil && sent < n {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return fmt.Errorf("protocol: send %T: payload cut after %d of %d bytes: %w", msg, sent, n, err)
	}
	return nil
}

// armedWriter writes to a Conn's connection, re-arming the write
// deadline before each write.
type armedWriter Conn

func (w *armedWriter) Write(p []byte) (int, error) {
	c := (*Conn)(w)
	if err := c.armWrite(); err != nil {
		return 0, err
	}
	return c.c.Write(p)
}

// armWrite sets the write deadline Timeout from now (none without one).
func (c *Conn) armWrite() error {
	if c.Timeout > 0 {
		if err := c.c.SetWriteDeadline(time.Now().Add(c.Timeout)); err != nil {
			return fmt.Errorf("protocol: set deadline: %w", err)
		}
	}
	return nil
}

// encode leaves msg's envelope in c.out, behind the preamble on the
// connection's first frame. A Payloader's envelope carries no payload,
// only its length n.
func (c *Conn) encode(msg any, n int64) error {
	c.sendEnv = envelope{Msg: msg}
	if p, ok := msg.(Payloader); ok {
		c.sendEnv = envelope{Msg: p.WithPayload(nil), Payload: n}
	}
	c.out.Reset()
	if !c.greeted {
		c.out.Write(preamble[:])
		c.greeted = true
	}
	err := c.enc.Encode(&c.sendEnv)
	c.sendEnv = envelope{}
	if err != nil {
		return fmt.Errorf("protocol: send: %w", err)
	}
	return nil
}

// Recv reads one message: its envelope, then any payload the envelope
// declares, into a buffer that grows only as the bytes arrive. It is
// RecvHeader followed by ReadPayload.
//
// A payload starts in a buffer the Conn keeps, min(payload, growStart)
// bytes: a received message's payload bytes are valid only until the
// next Recv on this Conn (like bufio.Scanner.Bytes). A payload larger
// than growStart grows out of it into buffers of its own, which the
// Conn lets go.
func (c *Conn) Recv() (any, error) {
	msg, n, err := c.RecvHeader()
	if err != nil || n == 0 {
		return msg, err
	}
	data, err := c.ReadPayload()
	if err != nil {
		return nil, err
	}
	return msg.(Payloader).WithPayload(data), nil
}

// RecvHeader reads one message's envelope and leaves its payload on the
// wire: msg carries no payload bytes, and n (any non-negative length)
// is how many follow it. The caller streams them from Payload or reads
// them whole with ReadPayload; whatever it leaves unread, the next Recv
// or RecvHeader skips, so a handler that refuses a message early stays
// in frame sync.
func (c *Conn) RecvHeader() (msg any, n int64, err error) {
	if c.Timeout > 0 {
		if err := c.c.SetReadDeadline(time.Now().Add(c.Timeout)); err != nil {
			return nil, 0, fmt.Errorf("protocol: set deadline: %w", err)
		}
	}
	if c.body.n > 0 {
		m, err := c.r.Discard(int(c.body.n))
		c.body.n -= int64(m)
		if err != nil {
			return nil, 0, fmt.Errorf("protocol: recv: skipping an unread payload: %w", err)
		}
	}
	if !c.verified {
		if err := c.readPreamble(); err != nil {
			return nil, 0, err
		}
		c.verified = true
	}
	c.recvEnv = envelope{}
	err = c.dec.Decode(&c.recvEnv)
	msg, n = c.recvEnv.Msg, c.recvEnv.Payload
	c.recvEnv = envelope{}
	if err != nil {
		return nil, 0, fmt.Errorf("protocol: recv: %w", err)
	}
	if n == 0 {
		return msg, 0, nil
	}
	if _, ok := msg.(Payloader); !ok {
		return nil, 0, fmt.Errorf("protocol: recv: %T declares a %d-byte payload it cannot carry", msg, n)
	}
	if n < 0 {
		return nil, 0, fmt.Errorf("protocol: recv %T payload: negative length %d", msg, n)
	}
	c.body.n = n
	return msg, n, nil
}

// Payload reads the unread rest of the payload RecvHeader announced,
// straight from the connection's read buffer, and then reports io.EOF;
// a connection that ends first is io.ErrUnexpectedEOF. It is valid
// until the next Recv or RecvHeader.
func (c *Conn) Payload() io.Reader { return &c.body }

// ReadPayload reads the unread rest of the payload RecvHeader announced
// into memory the way Recv does, under Recv's lifetime rule. A payload
// over MaxPayload is refused unread.
func (c *Conn) ReadPayload() ([]byte, error) {
	n := c.body.n
	if n > MaxPayload {
		return nil, fmt.Errorf("protocol: recv payload: length %d outside 0..%d", n, MaxPayload)
	}
	start, buf := min(n, growStart), c.in
	if int64(cap(buf)) < start {
		buf = make([]byte, start)
	}
	data, err := readGrown(&c.body, n, buf[:start])
	if err != nil {
		return nil, fmt.Errorf("protocol: recv payload: %w", err)
	}
	// A replacement buffer is kept only once a payload has filled it,
	// so a lying length leaves nothing behind.
	c.in = buf
	return data, nil
}

// payloadBody reads one frame's payload from the Conn's read buffer.
type payloadBody struct {
	r *bufio.Reader
	n int64 // payload bytes not read yet
}

func (b *payloadBody) Read(p []byte) (int, error) {
	if b.n <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > b.n {
		p = p[:b.n]
	}
	m, err := b.r.Read(p)
	b.n -= int64(m)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return m, err
}

// readPreamble checks the peer's first four bytes. Only the first Recv
// reads them, so a Conn that sends and then receives on one buffer
// (benchmark/layerwalk.go) sees its own preamble back. A version is
// named only when bytes arrived and were wrong: a peer that hangs up
// first (a port probe, a closed pooled connection, or a v1 peer that
// refused our frame) is a plain recv error.
func (c *Conn) readPreamble() error {
	var got [4]byte
	if n, err := io.ReadFull(c.r, got[:]); err != nil {
		if n == 0 || bytes.Equal(got[:n], preamble[:n]) {
			return fmt.Errorf("protocol: recv: %w", err)
		}
		return fmt.Errorf("protocol: peer speaks v1 (all-gob, no preamble) or another protocol (first bytes % x), this side v%d", got[:n], WireVersion)
	}
	switch {
	case got == preamble:
		return nil
	case bytes.Equal(got[:3], preamble[:3]):
		return fmt.Errorf("protocol: peer speaks wire v%d, this side v%d", got[3], WireVersion)
	default:
		return fmt.Errorf("protocol: peer speaks v1 (all-gob, no preamble) or another protocol (first bytes % x), this side v%d", got, WireVersion)
	}
}

// readGrown reads exactly n bytes without allocating ahead of the wire:
// it fills buf (min(n, growStart) long) and then doubles, capped at n,
// only when full, so the payload's buffer never exceeds max(growStart,
// 2 × bytes received) and a lying length costs growStart at most.
func readGrown(r io.Reader, n int64, buf []byte) ([]byte, error) {
	got := 0
	for {
		m, err := io.ReadFull(r, buf[got:])
		got += m
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, err
		}
		if int64(got) == n {
			return buf, nil
		}
		grown := make([]byte, min(2*int64(got), n))
		copy(grown, buf)
		buf = grown
	}
}

// Call sends a request and waits for an Ack.
func (c *Conn) Call(msg any) error {
	if err := c.Send(msg); err != nil {
		return err
	}
	return c.RecvAck()
}

// RecvAck reads the reply to a request, a refusal as an error.
func (c *Conn) RecvAck() error {
	reply, err := c.Recv()
	if err != nil {
		return err
	}
	ack, ok := reply.(Ack)
	if !ok {
		return fmt.Errorf("protocol: expected Ack, got %T", reply)
	}
	if !ack.OK {
		return fmt.Errorf("protocol: remote error: %s", ack.Error)
	}
	return nil
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.c.Close() }

// RemoteAddr exposes the peer address for logging.
func (c *Conn) RemoteAddr() string { return c.c.RemoteAddr().String() }
