// Package subclient implements the Bistro subscriber daemon: the
// lightweight process running on a subscriber host that accepts pushed
// files, availability notifications, and remote trigger invocations
// from a Bistro server (SIGMOD'11 §4.1), acknowledging each so the
// server can record delivery receipts.
//
// It is used by cmd/bistro-sub, by the examples, and — pointed at
// another Bistro server's landing directory — to cascade servers into
// a distributed feed delivery network (§3).
package subclient

import (
	"fmt"
	"hash/crc32"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"

	"bistro/internal/protocol"
)

// Options configure a Daemon.
type Options struct {
	// Name is the subscriber name announced to servers.
	Name string
	// DestDir is where pushed files are written.
	DestDir string
	// AllowTriggers permits remote trigger execution (via /bin/sh).
	AllowTriggers bool
	// OnFile, when set, is called after each pushed file is written
	// (relative path) and takes the place of the Received list.
	// Cascading servers ingest from here.
	OnFile func(relPath string)
	// OnNotify receives availability notifications (hybrid push-pull).
	OnNotify func(n protocol.Notify)
	// OnTrigger, when set, handles remote triggers instead of the
	// shell (tests, embedded subscribers).
	OnTrigger func(command string, paths []string) error
	// DedupByID suppresses re-deliveries of a file id already written:
	// the duplicate is acknowledged (the server records its receipt and
	// stops retrying) but not rewritten and OnFile does not fire again.
	// Failover re-sends anything acknowledged inside the owner's last
	// unreplicated instant, so clustered subscribers turn at-least-once
	// re-sends into exactly-once application here.
	DedupByID bool
}

// Daemon is a running subscriber endpoint.
type Daemon struct {
	opts Options
	ln   net.Listener

	mu       sync.Mutex
	received []string
	notified []protocol.Notify
	seen     map[uint64]bool // delivered file ids (DedupByID)
	dups     int
	conns    map[*protocol.Conn]struct{}
	wg       sync.WaitGroup
	closed   bool
}

// Start listens on addr ("127.0.0.1:0" for an ephemeral port) and
// serves until Stop.
func Start(addr string, opts Options) (*Daemon, error) {
	if opts.DestDir == "" {
		return nil, fmt.Errorf("subclient: destination directory required")
	}
	if err := os.MkdirAll(opts.DestDir, 0o755); err != nil {
		return nil, fmt.Errorf("subclient: mkdir: %w", err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("subclient: listen: %w", err)
	}
	d := &Daemon{opts: opts, ln: ln, conns: make(map[*protocol.Conn]struct{}), seen: make(map[uint64]bool)}
	d.wg.Add(1)
	go d.acceptLoop()
	return d, nil
}

// Addr returns the daemon's listen address.
func (d *Daemon) Addr() string { return d.ln.Addr().String() }

// Stop closes the listener and waits for handlers.
func (d *Daemon) Stop() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	for c := range d.conns {
		c.Close()
	}
	d.mu.Unlock()
	d.ln.Close()
	d.wg.Wait()
}

func (d *Daemon) acceptLoop() {
	defer d.wg.Done()
	for {
		c, err := d.ln.Accept()
		if err != nil {
			return
		}
		conn := protocol.NewConn(c)
		d.mu.Lock()
		if d.closed {
			d.mu.Unlock()
			conn.Close()
			return
		}
		d.conns[conn] = struct{}{}
		d.mu.Unlock()
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			d.serve(conn)
			d.mu.Lock()
			delete(d.conns, conn)
			d.mu.Unlock()
		}()
	}
}

// serve handles one server connection until it closes. A received
// payload lives in the Conn's buffer until the next Recv, so every
// handler has written it out before it returns.
func (d *Daemon) serve(conn *protocol.Conn) {
	defer conn.Close()
	for {
		msg, err := conn.Recv()
		if err != nil {
			return
		}
		var ack protocol.Ack
		switch m := msg.(type) {
		case protocol.Hello:
			ack = protocol.Ack{OK: true}
		case protocol.Deliver:
			ack = d.handleDeliver(m)
		case protocol.DeliverBegin:
			ack = d.handleStream(conn, m)
		case protocol.Notify:
			ack = d.handleNotify(m)
		case protocol.Trigger:
			ack = d.handleTrigger(m)
		default:
			ack = protocol.Ack{OK: false, Error: fmt.Sprintf("unexpected message %T", msg)}
		}
		if err := conn.Send(ack); err != nil {
			return
		}
	}
}

// handleStream receives a chunked transfer opened by DeliverBegin,
// writing to a temp file and renaming into place once the checksum
// verifies at DeliverEnd.
func (d *Daemon) handleStream(conn *protocol.Conn, m protocol.DeliverBegin) protocol.Ack {
	if d.isDuplicate(m.FileID) {
		drainStream(conn)
		return protocol.Ack{OK: true}
	}
	rel := filepath.FromSlash(m.Name)
	if filepath.IsAbs(rel) || strings.HasPrefix(filepath.Clean(rel), "..") {
		drainStream(conn)
		return protocol.Ack{OK: false, Error: "invalid path"}
	}
	dst := filepath.Join(d.opts.DestDir, rel)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		drainStream(conn)
		return protocol.Ack{OK: false, Error: err.Error()}
	}
	tmp, err := os.CreateTemp(filepath.Dir(dst), ".bistro-rx-*")
	if err != nil {
		drainStream(conn)
		return protocol.Ack{OK: false, Error: err.Error()}
	}
	crc := crc32.NewIEEE()
	var size int64
	fail := func(msg string) protocol.Ack {
		tmp.Close()
		os.Remove(tmp.Name())
		return protocol.Ack{OK: false, Error: msg}
	}
	for {
		msg, err := conn.Recv()
		if err != nil {
			return fail("stream interrupted: " + err.Error())
		}
		switch c := msg.(type) {
		case protocol.DeliverChunk:
			if _, err := tmp.Write(c.Data); err != nil {
				drainStream(conn)
				return fail(err.Error())
			}
			crc.Write(c.Data)
			size += int64(len(c.Data))
		case protocol.DeliverEnd:
			if size != m.Size || crc.Sum32() != m.CRC {
				return fail(fmt.Sprintf("stream verification failed: %d/%d bytes", size, m.Size))
			}
			if err := tmp.Close(); err != nil {
				os.Remove(tmp.Name())
				return protocol.Ack{OK: false, Error: err.Error()}
			}
			if err := os.Rename(tmp.Name(), dst); err != nil {
				os.Remove(tmp.Name())
				return protocol.Ack{OK: false, Error: err.Error()}
			}
			d.fileWritten(m.FileID, m.Name)
			return protocol.Ack{OK: true}
		default:
			return fail(fmt.Sprintf("unexpected %T inside stream", msg))
		}
	}
}

// drainStream consumes a broken stream's remaining chunks so the
// connection returns to message framing before the error Ack.
func drainStream(conn *protocol.Conn) {
	for {
		msg, err := conn.Recv()
		if err != nil {
			return
		}
		if _, done := msg.(protocol.DeliverEnd); done {
			return
		}
	}
}

// isDuplicate checks (and records a suppressed hit for) an already
// delivered file id.
func (d *Daemon) isDuplicate(fileID uint64) bool {
	if !d.opts.DedupByID || fileID == 0 {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.seen[fileID] {
		d.dups++
		return true
	}
	return false
}

// markDelivered records a file id after its content is in place.
func (d *Daemon) markDelivered(fileID uint64) {
	if !d.opts.DedupByID || fileID == 0 {
		return
	}
	d.mu.Lock()
	d.seen[fileID] = true
	d.mu.Unlock()
}

// fileWritten books one pushed file whose content is in place. Its
// name goes to the OnFile hook when there is one and onto the Received
// list otherwise: a daemon that hands every name on must not also keep
// them all for as long as it runs.
func (d *Daemon) fileWritten(fileID uint64, name string) {
	d.markDelivered(fileID)
	if d.opts.OnFile != nil {
		d.opts.OnFile(name)
		return
	}
	d.mu.Lock()
	d.received = append(d.received, name)
	d.mu.Unlock()
}

func (d *Daemon) handleDeliver(m protocol.Deliver) protocol.Ack {
	if d.isDuplicate(m.FileID) {
		return protocol.Ack{OK: true}
	}
	if crc32.ChecksumIEEE(m.Data) != m.CRC {
		return protocol.Ack{OK: false, Error: "checksum mismatch"}
	}
	rel := filepath.FromSlash(m.Name)
	if filepath.IsAbs(rel) || strings.HasPrefix(filepath.Clean(rel), "..") {
		return protocol.Ack{OK: false, Error: "invalid path"}
	}
	dst := filepath.Join(d.opts.DestDir, rel)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return protocol.Ack{OK: false, Error: err.Error()}
	}
	tmp, err := os.CreateTemp(filepath.Dir(dst), ".bistro-rx-*")
	if err != nil {
		return protocol.Ack{OK: false, Error: err.Error()}
	}
	if _, err := tmp.Write(m.Data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return protocol.Ack{OK: false, Error: err.Error()}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return protocol.Ack{OK: false, Error: err.Error()}
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		os.Remove(tmp.Name())
		return protocol.Ack{OK: false, Error: err.Error()}
	}
	d.fileWritten(m.FileID, m.Name)
	return protocol.Ack{OK: true}
}

func (d *Daemon) handleNotify(m protocol.Notify) protocol.Ack {
	d.mu.Lock()
	d.notified = append(d.notified, m)
	d.mu.Unlock()
	if d.opts.OnNotify != nil {
		d.opts.OnNotify(m)
	}
	return protocol.Ack{OK: true}
}

func (d *Daemon) handleTrigger(m protocol.Trigger) protocol.Ack {
	if d.opts.OnTrigger != nil {
		if err := d.opts.OnTrigger(m.Command, m.Paths); err != nil {
			return protocol.Ack{OK: false, Error: err.Error()}
		}
		return protocol.Ack{OK: true}
	}
	if !d.opts.AllowTriggers {
		return protocol.Ack{OK: false, Error: "triggers not allowed"}
	}
	out, err := exec.Command("/bin/sh", "-c", m.Command).CombinedOutput()
	if err != nil {
		return protocol.Ack{OK: false, Error: fmt.Sprintf("%v: %s", err, strings.TrimSpace(string(out)))}
	}
	return protocol.Ack{OK: true}
}

// Received returns the pushed file names so far (always empty with an
// OnFile hook, which gets the names instead).
func (d *Daemon) Received() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, len(d.received))
	copy(out, d.received)
	return out
}

// DuplicatesSuppressed reports how many re-deliveries DedupByID
// swallowed (acknowledged without rewriting).
func (d *Daemon) DuplicatesSuppressed() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dups
}

// Notifications returns the notifications received so far.
func (d *Daemon) Notifications() []protocol.Notify {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]protocol.Notify, len(d.notified))
	copy(out, d.notified)
	return out
}
