package cluster

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"bistro/internal/diskfault"
	"bistro/internal/protocol"
	"bistro/internal/receipts"
)

// errStreamDown fails a ship attempted while the stream is down.
var errStreamDown = errors.New("replication stream down")

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
		f, rerr := fsys.Open(path)
		if rerr != nil {
			if errors.Is(rerr, fs.ErrNotExist) {
				// Archived or removed between the directory listing and
				// the open — a live owner keeps expiring while it
				// re-seeds a standby. The receipt side covers it.
				return nil
			}
			return rerr
		}
		defer f.Close()
		// No receipt in hand: a CRC pass first, then the file streams.
		size, crc, rerr := diskfault.CopyCRC(io.Discard, f)
		if rerr == nil {
			_, rerr = f.Seek(0, io.SeekStart)
		}
		if rerr != nil {
			return rerr
		}
		return sh.ShipFile(filepath.ToSlash(rel), f, size, crc)
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
	if _, err := sh.roundLocked(RepHello{Node: sh.opts.Node, Epoch: sh.epoch()}, nil, 0); err != nil {
		return sh.failLocked("hello", err)
	}
	if err := sh.exchangeLocked(snapshotFrame(state), nil, int64(len(state))); err != nil {
		return sh.failLocked("snapshot", err)
	}
	sh.booted = true
	sh.alarmed = false
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
		return fmt.Errorf("cluster: heartbeat: %w", errStreamDown)
	}
	if err := sh.exchangeLocked(func(seq uint64) any { return RepHeartbeat{Seq: seq, Epoch: sh.epoch()} }, nil, 0); err != nil {
		return sh.failLocked("heartbeat", err)
	}
	if m := sh.opts.Metrics; m != nil {
		m.Heartbeats.Inc()
	}
	return nil
}

// ShipArchive replicates one archive promotion (receipt metadata,
// archive timestamp, and the content streamed from r: meta.Size bytes
// whose CRC is meta.Checksum) so the standby mirrors the archive tree
// and manifest. Called from the owner's expiry path after the local
// move; a failure fails the expiry pass, and the archive backlog
// re-ships on the next bootstrap.
func (sh *Shipper) ShipArchive(meta receipts.FileMeta, archivedAt time.Time, r io.Reader) error {
	return sh.ship("archive "+meta.StagedPath, func(seq uint64) any {
		return RepArchive{Seq: seq, Meta: meta, ArchivedAt: archivedAt}
	}, r, meta.Size)
}

// ShipBatch is the receipts flush hook: one group-commit batch, one
// standby fsync, acknowledged before any committer is released.
func (sh *Shipper) ShipBatch(payloads [][]byte) error {
	n := 0
	for _, p := range payloads {
		n += len(p)
	}
	err := sh.ship("batch", func(seq uint64) any { return RepBatch{Seq: seq, Payloads: payloads} }, nil, int64(n))
	if m := sh.opts.Metrics; m != nil && err == nil {
		m.ShipBatches.Inc()
	}
	return err
}

// ShipFile replicates one staged file (before its arrival receipt
// commits, mirroring the owner's own staged-then-logged ordering): size
// bytes streamed from r whose IEEE CRC32 is crc — the receipt's size
// and checksum.
func (sh *Shipper) ShipFile(relPath string, r io.Reader, size int64, crc uint32) error {
	err := sh.ship("file "+relPath, func(seq uint64) any { return RepFile{Seq: seq, Path: relPath, CRC: crc} }, r, size)
	if m := sh.opts.Metrics; m != nil && err == nil {
		m.ShipFiles.Inc()
	}
	return err
}

// ShipCheckpoint is the receipts checkpoint hook: the standby installs
// the snapshot and resets its shipped WAL, mirroring compaction.
func (sh *Shipper) ShipCheckpoint(state []byte) error {
	return sh.ship("checkpoint", snapshotFrame(state), nil, int64(len(state)))
}

func snapshotFrame(state []byte) func(seq uint64) any {
	return func(seq uint64) any { return RepSnapshot{Seq: seq, State: state} }
}

// ship runs one exchange on the booted stream; a failure, or a stream
// already down, is a replication failure (failLocked).
func (sh *Shipper) ship(stage string, frame func(seq uint64) any, body io.Reader, n int64) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	err := errStreamDown
	if sh.booted {
		err = sh.exchangeLocked(frame, body, n)
	}
	if err != nil {
		return sh.failLocked(stage, err)
	}
	return nil
}

// exchangeLocked sends frame(seq) for the next sequence number, with n
// bytes streamed from body behind it when body is set, and takes the
// standby's ack, counting n shipped bytes. Caller holds sh.mu with
// sh.conn established.
func (sh *Shipper) exchangeLocked(frame func(seq uint64) any, body io.Reader, n int64) error {
	sh.seq++
	ack, err := sh.roundLocked(frame(sh.seq), body, n)
	if err != nil {
		return err
	}
	sh.hw = ack.HW
	if m := sh.opts.Metrics; m != nil {
		m.ShipBytes.Add(n)
		m.AckedHW.Set(int64(sh.hw))
	}
	return nil
}

// roundLocked performs one request/response exchange: msg, followed,
// when body is set, by n bytes streamed from it. Caller holds sh.mu
// with sh.conn established.
func (sh *Shipper) roundLocked(msg any, body io.Reader, n int64) (RepAck, error) {
	if sh.conn == nil {
		return RepAck{}, fmt.Errorf("no connection")
	}
	var err error
	if body != nil {
		err = sh.conn.SendFrom(msg.(protocol.Payloader), body, n)
	} else {
		err = sh.conn.Send(msg)
	}
	if err != nil {
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
