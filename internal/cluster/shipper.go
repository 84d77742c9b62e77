package cluster

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"bistro/internal/diskfault"
	"bistro/internal/protocol"
	"bistro/internal/receipts"
)

// ShipperOptions configure an owner's replication stream.
type ShipperOptions struct {
	// Metrics receives the bistro_cluster_* owner-side series.
	Metrics *Metrics
	// Alarm is raised on replication failures (never silent).
	Alarm func(msg string)
	// Timeout bounds each stream exchange (default 5s).
	Timeout time.Duration
	// Node is the owner's node name, announced in RepHello.
	Node string
	// Epoch, when set, supplies the owner's current ownership epoch; it
	// is stamped on RepHello and RepHeartbeat so a standby that has
	// seen a newer epoch fences this shipper out. Nil sends epoch 0
	// (never fenced — the unclustered / pre-lease behaviour).
	Epoch func() uint64
}

// Shipper is the owner end of a replication stream: it installs itself
// into the receipt store's flush path (ArmShipper) so every
// group-commit batch is durable on the standby before any committer is
// acknowledged, ships staged payloads ahead of their receipts, and
// tracks the standby's acknowledged high-watermark.
//
// Replication is strict: while the stream is down, shipped commits
// fail, so an owner never acknowledges an arrival its standby cannot
// replay. The server's bootstrap loop re-establishes the stream (with
// a fresh snapshot) when the standby returns.
type Shipper struct {
	addr string
	opts ShipperOptions

	mu     sync.Mutex
	conn   *protocol.Conn
	seq    uint64
	hw     uint64
	booted bool
	// alarmed latches after the first alarm of an outage so a down
	// standby raises one alarm, not one per failed commit; a successful
	// re-bootstrap resets it.
	alarmed bool
}

// NewShipper targets the standby's replication address.
func NewShipper(addr string, opts ShipperOptions) *Shipper {
	if opts.Timeout <= 0 {
		opts.Timeout = 5 * time.Second
	}
	return &Shipper{addr: addr, opts: opts}
}

// Bootstrap establishes (or re-establishes) the stream: under the
// store's exclusive commit lock it ships a full snapshot and installs
// the flush hooks — no commit can interleave, so snapshot + batches is
// a complete history. It then walks stagingRoot shipping every staged
// payload; files staged after the hooks armed ship themselves from the
// ingest path, so the walk and the live stream together cover the
// tree. Safe to call again after a failure; the standby installs the
// fresh snapshot idempotently.
func (sh *Shipper) Bootstrap(store *receipts.Store, stagingRoot string, fsys diskfault.FS) error {
	if fsys == nil {
		fsys = diskfault.OS()
	}
	err := store.ArmShipper(receipts.ShipHooks{
		Batch:      sh.ShipBatch,
		Checkpoint: sh.ShipCheckpoint,
	}, sh.shipSnapshot)
	if err != nil {
		return fmt.Errorf("cluster: bootstrap %s: %w", sh.addr, err)
	}
	werr := filepath.WalkDir(stagingRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if d.IsDir() {
			return nil
		}
		if strings.HasPrefix(d.Name(), ".") {
			return nil
		}
		rel, rerr := filepath.Rel(stagingRoot, path)
		if rerr != nil {
			return rerr
		}
		data, rerr := diskfault.ReadFile(fsys, path, nil)
		if rerr != nil {
			if errors.Is(rerr, fs.ErrNotExist) {
				// Archived or removed between the directory listing and
				// the read — a live owner keeps expiring while it
				// re-seeds a standby. The receipt side covers it.
				return nil
			}
			return rerr
		}
		return sh.ShipFile(filepath.ToSlash(rel), data)
	})
	if werr != nil {
		return fmt.Errorf("cluster: bootstrap staging walk: %w", werr)
	}
	return nil
}

// shipSnapshot runs inside ArmShipper's exclusive section: (re)dial
// and send the full state.
func (sh *Shipper) shipSnapshot(state []byte) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// A fresh snapshot starts a fresh stream.
	if sh.conn != nil {
		sh.conn.Close()
		sh.conn = nil
	}
	sh.booted = false
	conn, err := protocol.Dial(sh.addr, sh.opts.Timeout)
	if err != nil {
		return sh.failLocked("dial", err)
	}
	sh.conn = conn
	if _, err := sh.roundLocked(RepHello{Node: sh.opts.Node, Epoch: sh.epoch()}); err != nil {
		return sh.failLocked("hello", err)
	}
	sh.seq++
	ack, err := sh.roundLocked(RepSnapshot{Seq: sh.seq, State: state})
	if err != nil {
		return sh.failLocked("snapshot", err)
	}
	sh.hw = ack.HW
	sh.booted = true
	sh.alarmed = false
	sh.addBytes(len(state))
	sh.setHW()
	return nil
}

// epoch reads the owner's current ownership epoch (0 without a source).
func (sh *Shipper) epoch() uint64 {
	if sh.opts.Epoch == nil {
		return 0
	}
	return sh.opts.Epoch()
}

// Heartbeat renews the owner's lease on an idle stream: one
// RepHeartbeat round trip carrying the current epoch. It is a no-op
// error (without failure side effects) while the stream is down — the
// re-bootstrap path owns that state.
func (sh *Shipper) Heartbeat() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !sh.booted {
		return fmt.Errorf("cluster: heartbeat: replication stream down")
	}
	sh.seq++
	ack, err := sh.roundLocked(RepHeartbeat{Seq: sh.seq, Epoch: sh.epoch()})
	if err != nil {
		return sh.failLocked("heartbeat", err)
	}
	sh.hw = ack.HW
	if m := sh.opts.Metrics; m != nil {
		m.Heartbeats.Inc()
	}
	sh.setHW()
	return nil
}

// ShipArchive replicates one archive promotion (content + receipt
// metadata + archive timestamp) so the standby mirrors the archive
// tree and manifest. Called from the owner's expiry path after the
// local move; a failure fails the expiry pass, and the archive backlog
// re-ships on the next bootstrap.
func (sh *Shipper) ShipArchive(meta receipts.FileMeta, archivedAt time.Time, data []byte) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !sh.booted {
		return sh.failLocked("archive", fmt.Errorf("replication stream down"))
	}
	sh.seq++
	ack, err := sh.roundLocked(RepArchive{
		Seq:        sh.seq,
		Meta:       meta,
		ArchivedAt: archivedAt,
		Data:       data,
		CRC:        crc32.ChecksumIEEE(data),
	})
	if err != nil {
		return sh.failLocked("archive "+meta.StagedPath, err)
	}
	sh.hw = ack.HW
	sh.addBytes(len(data))
	sh.setHW()
	return nil
}

// ShipBatch is the receipts flush hook: one group-commit batch, one
// standby fsync, acknowledged before any committer is released.
func (sh *Shipper) ShipBatch(payloads [][]byte) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !sh.booted {
		return sh.failLocked("batch", fmt.Errorf("replication stream down"))
	}
	sh.seq++
	ack, err := sh.roundLocked(RepBatch{Seq: sh.seq, Payloads: payloads})
	if err != nil {
		return sh.failLocked("batch", err)
	}
	sh.hw = ack.HW
	if m := sh.opts.Metrics; m != nil {
		m.ShipBatches.Inc()
	}
	n := 0
	for _, p := range payloads {
		n += len(p)
	}
	sh.addBytes(n)
	sh.setHW()
	return nil
}

// ShipFile replicates one staged payload (before its arrival receipt
// commits, mirroring the owner's own staged-then-logged ordering).
func (sh *Shipper) ShipFile(relPath string, data []byte) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !sh.booted {
		return sh.failLocked("file", fmt.Errorf("replication stream down"))
	}
	sh.seq++
	ack, err := sh.roundLocked(RepFile{
		Seq:  sh.seq,
		Path: relPath,
		Data: data,
		CRC:  crc32.ChecksumIEEE(data),
	})
	if err != nil {
		return sh.failLocked("file "+relPath, err)
	}
	sh.hw = ack.HW
	if m := sh.opts.Metrics; m != nil {
		m.ShipFiles.Inc()
	}
	sh.addBytes(len(data))
	sh.setHW()
	return nil
}

// ShipCheckpoint is the receipts checkpoint hook: the standby installs
// the snapshot and resets its shipped WAL, mirroring compaction.
func (sh *Shipper) ShipCheckpoint(state []byte) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !sh.booted {
		return sh.failLocked("checkpoint", fmt.Errorf("replication stream down"))
	}
	sh.seq++
	ack, err := sh.roundLocked(RepSnapshot{Seq: sh.seq, State: state})
	if err != nil {
		return sh.failLocked("checkpoint", err)
	}
	sh.hw = ack.HW
	sh.addBytes(len(state))
	sh.setHW()
	return nil
}

// roundLocked performs one request/response exchange. Caller holds
// sh.mu with sh.conn established.
func (sh *Shipper) roundLocked(msg any) (RepAck, error) {
	if sh.conn == nil {
		return RepAck{}, fmt.Errorf("no connection")
	}
	if err := sh.conn.Send(msg); err != nil {
		return RepAck{}, err
	}
	reply, err := sh.conn.Recv()
	if err != nil {
		return RepAck{}, err
	}
	ack, ok := reply.(RepAck)
	if !ok {
		return RepAck{}, fmt.Errorf("expected RepAck, got %T", reply)
	}
	if !ack.OK {
		return RepAck{}, fmt.Errorf("standby refused: %s", ack.Error)
	}
	return ack, nil
}

// failLocked records a replication failure: counter, alarm, stream
// marked down so the server's bootstrap loop re-establishes it. The
// alarm is raised once per outage (the latch resets when a bootstrap
// succeeds); the failure counter still counts every failed ship.
func (sh *Shipper) failLocked(stage string, err error) error {
	if sh.conn != nil {
		sh.conn.Close()
		sh.conn = nil
	}
	sh.booted = false
	if m := sh.opts.Metrics; m != nil {
		m.ShipFailures.Inc()
	}
	werr := fmt.Errorf("cluster: ship %s to %s: %w", stage, sh.addr, err)
	if sh.opts.Alarm != nil && !sh.alarmed {
		sh.alarmed = true
		sh.opts.Alarm(werr.Error())
	}
	return werr
}

func (sh *Shipper) addBytes(n int) {
	if m := sh.opts.Metrics; m != nil {
		m.ShipBytes.Add(int64(n))
	}
}

func (sh *Shipper) setHW() {
	if m := sh.opts.Metrics; m != nil {
		m.AckedHW.Set(int64(sh.hw))
	}
}

// Healthy reports whether the stream is up (bootstrapped and no
// failure since).
func (sh *Shipper) Healthy() bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.booted
}

// AckedHW returns the standby's acknowledged high-watermark.
func (sh *Shipper) AckedHW() uint64 {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.hw
}

// Addr returns the standby replication address this shipper targets.
func (sh *Shipper) Addr() string { return sh.addr }

// Close tears the stream down.
func (sh *Shipper) Close() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.conn != nil {
		sh.conn.Close()
		sh.conn = nil
	}
	sh.booted = false
}
