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
	"io"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync"

	"bistro/internal/diskfault"
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

// serve handles one server connection until it closes. A Deliver's
// payload streams from the wire to disk; whatever a refusal leaves
// unread, the next RecvHeader skips.
func (d *Daemon) serve(conn *protocol.Conn) {
	defer conn.Close()
	for {
		msg, _, err := conn.RecvHeader()
		if err != nil {
			return
		}
		var ack protocol.Ack
		switch m := msg.(type) {
		case protocol.Hello:
			ack = protocol.Ack{OK: true}
		case protocol.Deliver:
			ack = d.handleDeliver(m, conn.Payload())
		case protocol.Notify:
			ack = d.handleNotify(m)
		case protocol.Trigger:
			ack = d.handleTrigger(m)
		default:
			ack = protocol.Ack{OK: false, Error: fmt.Sprintf("unexpected message %T", msg)}
		}
		if err := conn.SendAck(ack); err != nil {
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

// handleDeliver writes one pushed file from its payload with
// diskfault.Receive. Its name then goes to the OnFile hook when there
// is one and onto the Received list otherwise: a daemon that hands
// every name on must not also keep them all for as long as it runs.
func (d *Daemon) handleDeliver(m protocol.Deliver, payload io.Reader) protocol.Ack {
	if d.isDuplicate(m.FileID) {
		return protocol.Ack{OK: true}
	}
	if err := diskfault.Receive(diskfault.OS(), d.opts.DestDir, m.Name, payload, m.CRC, true); err != nil {
		return protocol.Ack{OK: false, Error: err.Error()}
	}
	d.mu.Lock()
	if d.opts.DedupByID && m.FileID != 0 {
		d.seen[m.FileID] = true
	}
	if d.opts.OnFile == nil {
		d.received = append(d.received, m.Name)
	}
	d.mu.Unlock()
	if d.opts.OnFile != nil {
		d.opts.OnFile(m.Name)
	}
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
