package cluster

import (
	"fmt"
	"hash/crc32"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"bistro/internal/archive"
	"bistro/internal/clock"
	"bistro/internal/diskfault"
	"bistro/internal/protocol"
	"bistro/internal/receipts"
)

// StandbyOptions configure a warm standby.
type StandbyOptions struct {
	// Root is the standby's data root; the shipped receipt database
	// lives under Root/receipts and shipped payloads under Root/staging
	// — the same layout a serving node uses, so promotion is just
	// opening Root as a server.
	Root string
	// FS is the filesystem seam (nil = the real OS).
	FS diskfault.FS
	// Alarm is raised on every apply failure — a standby never drops a
	// frame silently.
	Alarm func(msg string)
	// Metrics receives the standby-side bistro_cluster_* series.
	Metrics *Metrics
	// Logf, when set, receives connection-level events.
	Logf func(format string, args ...any)
	// ArchiveDir is where shipped archive promotions land (default
	// Root/archive) — the same layout a serving node uses.
	ArchiveDir string
	// Epoch is the initial ownership epoch floor. A re-seeded standby
	// starts from the survivor's epoch so a fenced-out old owner cannot
	// re-open a stream to it.
	Epoch uint64
	// Clock stamps owner contact for the lease monitor (default wall
	// clock).
	Clock clock.Clock
}

// Standby is the receiving end of a replication stream: it makes every
// shipped snapshot, WAL batch and staged file durable before
// acknowledging, so the owner's commit protocol can treat a RepAck as
// "this survives my death". It maintains no in-memory receipt index —
// promotion opens the directory as a full Store and replays.
type Standby struct {
	opts    StandbyOptions
	fs      diskfault.FS
	root    string
	stage   string
	dbDir   string
	archDir string
	clk     clock.Clock
	ln      net.Listener

	mu          sync.Mutex
	wal         *receipts.WALWriter
	hw          uint64
	owner       string
	epoch       uint64
	lastContact time.Time
	man         *archive.Manifest // lazily opened on the first RepArchive
	conns       map[*protocol.Conn]struct{}
	detached    bool

	wg sync.WaitGroup
}

// StartStandby opens the shipped WAL under root and begins accepting
// replication streams on addr (":0" picks a free port).
func StartStandby(addr string, opts StandbyOptions) (*Standby, error) {
	if opts.Root == "" {
		return nil, fmt.Errorf("cluster: standby needs a root")
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = diskfault.OS()
	}
	clk := opts.Clock
	if clk == nil {
		clk = clock.NewReal()
	}
	archDir := opts.ArchiveDir
	if archDir == "" {
		archDir = filepath.Join(opts.Root, "archive")
	}
	s := &Standby{
		opts:    opts,
		fs:      fsys,
		root:    opts.Root,
		stage:   filepath.Join(opts.Root, "staging"),
		dbDir:   filepath.Join(opts.Root, "receipts"),
		archDir: archDir,
		clk:     clk,
		epoch:   opts.Epoch,
		conns:   make(map[*protocol.Conn]struct{}),
	}
	ww, err := receipts.OpenWALWriter(fsys, s.dbDir)
	if err != nil {
		return nil, fmt.Errorf("cluster: standby wal: %w", err)
	}
	s.wal = ww
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		ww.Close()
		return nil, fmt.Errorf("cluster: standby listen %s: %w", addr, err)
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the replication listen address.
func (s *Standby) Addr() string { return s.ln.Addr().String() }

// Root returns the standby data root (a server root after promotion).
func (s *Standby) Root() string { return s.root }

// HW returns the acknowledged high-watermark.
func (s *Standby) HW() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hw
}

// OwnerNode returns the node name from the last RepHello.
func (s *Standby) OwnerNode() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.owner
}

// Epoch returns the highest ownership epoch this standby has seen.
func (s *Standby) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// ObserveEpoch raises the standby's epoch floor (never lowers it) —
// used when a rejoin handshake reports the survivor's epoch before the
// replication stream opens.
func (s *Standby) ObserveEpoch(e uint64) {
	s.mu.Lock()
	if e > s.epoch {
		s.epoch = e
	}
	s.mu.Unlock()
}

// LastContact returns when the owner last made a frame durable here
// (zero before first contact). The lease monitor's failure signal.
func (s *Standby) LastContact() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastContact
}

// IsDetached reports whether the standby has stopped accepting
// replication traffic (promoted or closed).
func (s *Standby) IsDetached() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.detached
}

func (s *Standby) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		conn := protocol.NewConn(c)
		s.mu.Lock()
		if s.detached {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serve(conn)
		}()
	}
}

// serve applies one owner connection's stream. A received payload lives
// in the Conn's buffer until the next Recv; apply has made it durable
// before it returns.
func (s *Standby) serve(conn *protocol.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	for {
		msg, err := conn.Recv()
		if err != nil {
			return
		}
		ack := s.apply(msg)
		if err := conn.Send(ack); err != nil {
			return
		}
		if !ack.OK {
			// A nacked frame poisons the stream order; force the owner
			// to re-bootstrap with a fresh snapshot.
			return
		}
	}
}

// apply makes one stream message durable. Serialized: a re-connecting
// owner's snapshot must not interleave with a stale stream's batches.
func (s *Standby) apply(msg any) RepAck {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.detached {
		return s.nackLocked(fmt.Errorf("standby detached (promoted)"))
	}
	var err error
	var seq uint64
	switch m := msg.(type) {
	case RepHello:
		if fenced := s.fenceLocked(m.Epoch, "hello from "+m.Node); fenced != nil {
			return *fenced
		}
		s.owner = m.Node
		s.logf("cluster: standby %s: stream from %s (epoch %d)", s.Addr(), m.Node, m.Epoch)
		return s.okLocked(0)
	case RepHeartbeat:
		if fenced := s.fenceLocked(m.Epoch, "heartbeat"); fenced != nil {
			return *fenced
		}
		return s.okLocked(m.Seq)
	case RepSnapshot:
		seq = m.Seq
		err = s.applySnapshotLocked(m)
	case RepFile:
		seq = m.Seq
		err = s.applyFileLocked(m)
	case RepBatch:
		seq = m.Seq
		err = s.applyBatchLocked(m)
	case RepArchive:
		seq = m.Seq
		err = s.applyArchiveLocked(m)
	default:
		err = fmt.Errorf("unexpected replication message %T", msg)
	}
	if err != nil {
		return s.nackLocked(err)
	}
	return s.okLocked(seq)
}

// fenceLocked enforces the epoch rule on epoch-bearing frames: an
// epoch older than the highest seen is refused (alarm + counter), a
// newer one raises the floor. Epoch 0 carries no claim and passes.
// Returns a nack to send, or nil to proceed.
func (s *Standby) fenceLocked(epoch uint64, what string) *RepAck {
	if epoch == 0 {
		return nil
	}
	if epoch < s.epoch {
		if m := s.opts.Metrics; m != nil {
			m.Fenced.Inc()
		}
		msg := fmt.Sprintf("cluster: standby %s: fenced stale-epoch %s (epoch %d < %d)",
			s.root, what, epoch, s.epoch)
		if s.opts.Alarm != nil {
			s.opts.Alarm(msg)
		}
		s.logf("%s", msg)
		ack := RepAck{
			OK:    false,
			Error: fmt.Sprintf("fenced: stale epoch %d (standby has seen %d)", epoch, s.epoch),
			HW:    s.hw,
			Epoch: s.epoch,
		}
		return &ack
	}
	if epoch > s.epoch {
		s.epoch = epoch
	}
	return nil
}

// applySnapshotLocked installs a full checkpoint and resets the
// shipped WAL — the stream restarts from a complete base.
func (s *Standby) applySnapshotLocked(m RepSnapshot) error {
	if err := receipts.WriteCheckpoint(s.fs, s.dbDir, m.State); err != nil {
		return err
	}
	return s.wal.Reset()
}

// applyFileLocked writes one staged payload durably, verifying the CRC
// and confining the path to the staging tree.
func (s *Standby) applyFileLocked(m RepFile) error {
	rel := filepath.FromSlash(m.Path)
	if rel == "" || filepath.IsAbs(rel) || strings.Contains(rel, "..") {
		return fmt.Errorf("unsafe shipped path %q", m.Path)
	}
	if crc32.ChecksumIEEE(m.Data) != m.CRC {
		return fmt.Errorf("shipped file %q failed CRC", m.Path)
	}
	dst := filepath.Join(s.stage, rel)
	if err := s.fs.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	return diskfault.WriteDurable(s.fs, dst, m.Data, 0o644)
}

// applyBatchLocked validates and appends one shipped group-commit
// batch under a single fsync.
func (s *Standby) applyBatchLocked(m RepBatch) error {
	for _, p := range m.Payloads {
		if err := receipts.CheckPayload(p); err != nil {
			return err
		}
	}
	return s.wal.AppendBatch(m.Payloads)
}

// applyArchiveLocked mirrors one archive promotion: write the archived
// content durably under the standby's archive tree, drop any staged
// copy (the owner's move already consumed its own), and append the
// manifest entries. Idempotent: a re-shipped promotion (bootstrap
// after a mid-expiry failure) overwrites the same bytes and the
// manifest drops ids it already holds.
func (s *Standby) applyArchiveLocked(m RepArchive) error {
	rel := filepath.FromSlash(m.Meta.StagedPath)
	if rel == "" || filepath.IsAbs(rel) || strings.Contains(rel, "..") {
		return fmt.Errorf("unsafe shipped archive path %q", m.Meta.StagedPath)
	}
	if crc32.ChecksumIEEE(m.Data) != m.CRC {
		return fmt.Errorf("shipped archive %q failed CRC", m.Meta.StagedPath)
	}
	dst := filepath.Join(s.archDir, rel)
	if err := s.fs.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	if err := diskfault.WriteDurable(s.fs, dst, m.Data, 0o644); err != nil {
		return err
	}
	// The staged copy is now archive history on both ends.
	s.fs.Remove(filepath.Join(s.stage, rel))
	if s.man == nil {
		man, err := archive.OpenManifest(s.fs, filepath.Join(s.archDir, archive.ManifestDir))
		if err != nil {
			return fmt.Errorf("standby manifest: %w", err)
		}
		s.man = man
	}
	if s.man.Has(m.Meta.ID) {
		return nil
	}
	return s.man.Append(archive.EntriesFor(m.Meta, m.ArchivedAt))
}

func (s *Standby) okLocked(seq uint64) RepAck {
	if seq > s.hw {
		s.hw = seq
	}
	s.lastContact = s.clk.Now()
	if m := s.opts.Metrics; m != nil {
		m.StandbyFrames.Inc()
	}
	return RepAck{OK: true, HW: s.hw, Epoch: s.epoch}
}

// nackLocked is the no-silent-drop rule: every apply failure raises an
// alarm, bumps the failure counter, and refuses the frame so the owner
// fails its commit instead of believing the standby has it.
func (s *Standby) nackLocked(err error) RepAck {
	if m := s.opts.Metrics; m != nil {
		m.StandbyFailures.Inc()
	}
	msg := fmt.Sprintf("cluster: standby %s: %v", s.root, err)
	if s.opts.Alarm != nil {
		s.opts.Alarm(msg)
	}
	s.logf("%s", msg)
	return RepAck{OK: false, Error: err.Error(), HW: s.hw, Epoch: s.epoch}
}

func (s *Standby) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Detach stops accepting replication traffic and closes the shipped
// WAL so promotion can open Root as a serving node. Idempotent.
func (s *Standby) Detach() error {
	s.mu.Lock()
	if s.detached {
		s.mu.Unlock()
		return nil
	}
	s.detached = true
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close is Detach for shutdown paths.
func (s *Standby) Close() error { return s.Detach() }
