package receipts

import (
	"encoding/gob"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"bistro/internal/diskfault"
	"bistro/internal/metrics"
)

// Metrics holds the receipt store's instrumentation. Nil (or any nil
// field) disables that series at no hot-path cost.
type Metrics struct {
	// Commits counts committed transactions.
	Commits *metrics.Counter
	// Checkpoints counts completed checkpoint snapshots.
	Checkpoints *metrics.Counter
	// FsyncSeconds observes WAL fsync latency (group commit batches
	// count once — the latency every waiter in the batch shares).
	FsyncSeconds *metrics.Histogram
	// WALBytes tracks the WAL size since the last checkpoint.
	WALBytes *metrics.Gauge
	// BatchSize observes how many transactions each WAL flush carried
	// — the amortization the group-commit flush window buys.
	BatchSize *metrics.Histogram
}

// NewMetrics registers the receipt-store metric families on r using
// the canonical names catalogued in docs/OBSERVABILITY.md.
func NewMetrics(r *metrics.Registry) *Metrics {
	return &Metrics{
		Commits: r.Counter("bistro_receipts_commits_total",
			"Committed receipt transactions."),
		Checkpoints: r.Counter("bistro_receipts_checkpoints_total",
			"Completed receipt-store checkpoints."),
		FsyncSeconds: r.Histogram("bistro_receipts_fsync_seconds",
			"WAL fsync latency.", nil),
		WALBytes: r.Gauge("bistro_receipts_wal_bytes",
			"WAL size since the last checkpoint."),
		BatchSize: r.Histogram("bistro_receipts_group_batch_size",
			"Transactions per WAL flush (group-commit batch size).", nil),
	}
}

// FileMeta is the arrival receipt for one received file.
type FileMeta struct {
	// ID is the store-assigned monotone file id.
	ID uint64
	// Name is the original filename relative to its landing directory.
	Name string
	// StagedPath is the normalized path in the staging area.
	StagedPath string
	// Feeds lists the consumer feeds the file was classified into.
	Feeds []string
	// Size is the file size in bytes.
	Size int64
	// Checksum is the CRC32 of the staged content.
	Checksum uint32
	// Arrived is when the server received the file.
	Arrived time.Time
	// DataTime is the timestamp encoded in the filename (zero if none);
	// it drives batch detection and window expiry.
	DataTime time.Time
	// Origin is the file id of the arrival this file was derived from
	// by a plan's split/route operator (0 = a direct arrival). Derived
	// receipts commit in the same WAL transaction as their parent, so
	// provenance never dangles across a crash.
	Origin uint64
}

// GroupCommitConfig tunes the WAL flush window. The zero value keeps
// the historical opportunistic behaviour: the first committer to find
// no flush in progress becomes the leader and immediately flushes
// whatever has queued. A non-zero MaxDelay makes the leader hold its
// window open so concurrent committers coalesce into one batched
// append + a single fsync; MaxBatch cuts the window short once enough
// transactions have queued.
type GroupCommitConfig struct {
	// MaxBatch flushes as soon as this many transactions are queued
	// (0 = no count trigger; the window runs to MaxDelay).
	MaxBatch int
	// MaxDelay is how long the leader waits for companions before
	// flushing (0 = flush immediately, the historical behaviour).
	// Every committer in the batch blocks until the shared fsync
	// completes, so durability-on-ack is unchanged.
	MaxDelay time.Duration
}

// Options configure a Store.
type Options struct {
	// NoSync disables fsync entirely (for tests and simulations where
	// durability is irrelevant).
	NoSync bool
	// NoGroupCommit forces one fsync per transaction instead of group
	// commit. Exposed for the E10 ablation.
	NoGroupCommit bool
	// GroupCommit tunes the flush window for batched WAL fsyncs.
	// Ignored when NoSync or NoGroupCommit is set.
	GroupCommit GroupCommitConfig
	// CheckpointEvery triggers an automatic checkpoint after this many
	// committed transactions (0 = never automatic).
	CheckpointEvery int
	// CheckpointBytes triggers an automatic checkpoint once the WAL
	// grows past this size (0 = never automatic). Bounds recovery time
	// independent of transaction count.
	CheckpointBytes int64
	// FS is the filesystem seam (nil = the real filesystem). Fault
	// injection and crash simulations substitute diskfault
	// implementations here.
	FS diskfault.FS
	// Metrics, when non-nil, receives store instrumentation.
	Metrics *Metrics
}

// Store is the receipt database. All methods are safe for concurrent
// use.
type Store struct {
	dir  string
	opts Options
	fs   diskfault.FS

	// commitLock serializes checkpoints against in-flight commits:
	// every commit holds it shared across its WAL append + memory
	// apply, so a checkpoint (exclusive) never snapshots state that
	// misses an already-logged transaction it is about to discard.
	commitLock sync.RWMutex

	mu     sync.Mutex
	wal    *wal
	nextID uint64
	files  map[uint64]*FileMeta
	// feedFiles holds file ids per feed in arrival order.
	feedFiles map[string][]uint64
	// delivered[sub] is the set of file ids delivered to sub.
	delivered map[string]map[uint64]time.Time
	expired   map[uint64]bool
	// quarantined[id] marks arrivals whose staged payload was found
	// missing or corrupt by startup reconciliation; they are excluded
	// from delivery queues until an operator re-ingests them.
	quarantined map[uint64]bool
	// groups holds the per-channel shared delivery logs + member
	// cursors (see group.go).
	groups   map[string]*groupState
	commits  int
	walBytes int64 // approximate WAL size since the last checkpoint
	closed   bool

	// ship holds the replication hooks a clustered owner installs via
	// ArmShipper. Written under commitLock (exclusive) + mu, read in
	// the flush path under commitLock (shared).
	ship ShipHooks

	// Group commit state.
	gc groupCommit
}

// groupCommit coordinates batched fsyncs: concurrent committers queue
// their payloads; one of them becomes the leader, optionally holds a
// flush window open to collect companions, then writes and syncs the
// whole batch and wakes the rest.
type groupCommit struct {
	mu      sync.Mutex
	queue   [][]byte
	results []chan error
	busy    bool
	// wake is non-nil while the leader sleeps in its flush window; a
	// committer that fills the batch closes it to cut the window short.
	wake chan struct{}
}

const checkpointName = "receipts.ckpt"

// Open opens (creating if necessary) the receipt store in dir.
func Open(dir string, opts Options) (*Store, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = diskfault.OS()
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("receipts: mkdir: %w", err)
	}
	s := &Store{
		dir:         dir,
		opts:        opts,
		fs:          fsys,
		nextID:      1,
		files:       make(map[uint64]*FileMeta),
		feedFiles:   make(map[string][]uint64),
		delivered:   make(map[string]map[uint64]time.Time),
		expired:     make(map[uint64]bool),
		quarantined: make(map[uint64]bool),
		groups:      make(map[string]*groupState),
	}
	if err := s.loadCheckpoint(); err != nil {
		return nil, err
	}
	w, err := openWAL(fsys, filepath.Join(dir, walName))
	if err != nil {
		return nil, err
	}
	if !opts.NoSync {
		// The WAL file may have just been created: make its directory
		// entry durable before the first synced append relies on it.
		if err := fsys.SyncDir(dir); err != nil {
			w.close()
			return nil, fmt.Errorf("receipts: sync dir: %w", err)
		}
	}
	s.wal = w
	if err := w.replay(func(payload []byte) error {
		ops, err := decodeOps(payload)
		if err != nil {
			return err
		}
		for _, o := range ops {
			s.applyLocked(o)
		}
		return nil
	}); err != nil {
		w.close()
		return nil, err
	}
	// Seed the mu-guarded size mirror from the replayed WAL: Stats
	// reads it instead of wal.size, which is only safe under gc.mu.
	s.walBytes = w.size
	return s, nil
}

// applyLocked mutates in-memory state for one decoded record.
func (s *Store) applyLocked(o op) {
	switch o.kind {
	case recArrival, recDerived:
		f := o.file
		s.files[f.ID] = &f
		for _, feed := range f.Feeds {
			s.feedFiles[feed] = append(s.feedFiles[feed], f.ID)
		}
		if f.ID >= s.nextID {
			s.nextID = f.ID + 1
		}
	case recDelivery:
		m := s.delivered[o.sub]
		if m == nil {
			m = make(map[uint64]time.Time)
			s.delivered[o.sub] = m
		}
		m[o.id] = o.at
	case recExpire:
		s.expired[o.id] = true
	case recQuarantine:
		s.quarantined[o.id] = true
	case recGroupDelivery, recGroupCursor, recGroupAttach, recGroupDetach, recGroupForget:
		s.applyGroupLocked(o)
	}
}

// ErrCheckpoint wraps the failure of an automatic checkpoint that ran
// behind a transaction already logged, synced and applied: the
// transaction stands, only the WAL was not compacted.
var ErrCheckpoint = errors.New("receipts: checkpoint after commit failed")

// commit encodes ops as one transaction, appends it durably, and then
// applies it to memory. An error wrapping ErrCheckpoint means the
// transaction itself stands.
func (s *Store) commit(ops []op) error {
	payload := make([]byte, 0, 64*len(ops))
	for _, o := range ops {
		payload = encodeOp(payload, o)
	}
	s.commitLock.RLock()
	if err := s.append(payload); err != nil {
		s.commitLock.RUnlock()
		return err
	}
	s.mu.Lock()
	for _, o := range ops {
		s.applyLocked(o)
	}
	s.commits++
	s.walBytes += int64(len(payload)) + 8
	walBytes := s.walBytes
	doCkpt := (s.opts.CheckpointEvery > 0 && s.commits%s.opts.CheckpointEvery == 0) ||
		(s.opts.CheckpointBytes > 0 && s.walBytes >= s.opts.CheckpointBytes)
	s.mu.Unlock()
	s.commitLock.RUnlock()
	if m := s.opts.Metrics; m != nil {
		m.Commits.Inc()
		m.WALBytes.Set(walBytes)
	}
	if doCkpt {
		if err := s.Checkpoint(); err != nil {
			return fmt.Errorf("%w: %w", ErrCheckpoint, err)
		}
	}
	return nil
}

// append writes one framed transaction, honouring the configured
// durability mode.
func (s *Store) append(payload []byte) error {
	if s.opts.NoSync || s.opts.NoGroupCommit {
		s.gc.mu.Lock()
		defer s.gc.mu.Unlock()
		if err := s.walAppend([][]byte{payload}); err != nil {
			return err
		}
		return nil
	}
	return s.groupAppend(payload)
}

// walAppend writes payloads and syncs according to options, then
// ships the batch to the standby when replication is armed — after the
// local fsync, before any committer in the batch is released, so an
// acknowledged transaction is always durable on both nodes. Caller
// holds gc.mu (serializing file access).
func (s *Store) walAppend(payloads [][]byte) error {
	for _, p := range payloads {
		if err := s.wal.append(p); err != nil {
			return err
		}
	}
	if !s.opts.NoSync {
		m := s.opts.Metrics
		if m == nil {
			if err := s.wal.sync(); err != nil {
				return err
			}
		} else {
			start := time.Now()
			if err := s.wal.sync(); err != nil {
				return err
			}
			m.FsyncSeconds.Observe(time.Since(start).Seconds())
		}
	}
	if s.ship.Batch != nil {
		if err := s.ship.Batch(payloads); err != nil {
			return fmt.Errorf("receipts: replicate batch: %w", err)
		}
	}
	return nil
}

// groupAppend implements leader-based group commit. The first
// committer to find no flush in progress becomes the leader; with a
// configured flush window it sleeps up to MaxDelay (cut short when
// MaxBatch fills) so concurrent committers coalesce, then performs one
// batched append + fsync and distributes the result to every waiter.
func (s *Store) groupAppend(payload []byte) error {
	g := &s.gc
	cfg := s.opts.GroupCommit
	done := make(chan error, 1)
	g.mu.Lock()
	g.queue = append(g.queue, payload)
	g.results = append(g.results, done)
	if g.busy {
		// A leader is flushing; it (or a successor) will pick us up.
		// If we just filled the batch, cut its flush window short.
		if g.wake != nil && cfg.MaxBatch > 0 && len(g.queue) >= cfg.MaxBatch {
			close(g.wake)
			g.wake = nil
		}
		g.mu.Unlock()
		return <-done
	}
	// Become leader: flush everything queued (including work that
	// arrived while previous leaders ran).
	g.busy = true
	for len(g.queue) > 0 {
		if cfg.MaxDelay > 0 && (cfg.MaxBatch <= 0 || len(g.queue) < cfg.MaxBatch) {
			wake := make(chan struct{})
			g.wake = wake
			g.mu.Unlock()
			t := time.NewTimer(cfg.MaxDelay)
			select {
			case <-wake:
			case <-t.C:
			}
			t.Stop()
			g.mu.Lock()
			if g.wake == wake {
				g.wake = nil
			}
		}
		batch := g.queue
		waiters := g.results
		g.queue = nil
		g.results = nil
		g.mu.Unlock()
		err := s.walAppend(batch)
		if m := s.opts.Metrics; m != nil && m.BatchSize != nil {
			m.BatchSize.Observe(float64(len(batch)))
		}
		for _, ch := range waiters {
			ch <- err
		}
		g.mu.Lock()
	}
	g.busy = false
	g.mu.Unlock()
	return <-done
}

// RecordArrival durably records a newly received file and returns its
// assigned id: an arrival with no derived files.
func (s *Store) RecordArrival(f FileMeta) (uint64, error) {
	ids, err := s.RecordArrivalDerived(f, nil)
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// RecordArrivalDerived durably records one arrival plus the files a
// plan derived from it, in a single WAL transaction: either the whole
// family survives a crash or none of it does, so a derived receipt's
// Origin always resolves. Each derived meta's Origin is set to the
// parent's assigned id. Returns the parent id followed by the derived
// ids, in order.
func (s *Store) RecordArrivalDerived(parent FileMeta, derived []FileMeta) ([]uint64, error) {
	s.mu.Lock()
	ids := make([]uint64, 0, 1+len(derived))
	parent.ID = s.nextID
	s.nextID++
	ids = append(ids, parent.ID)
	ops := make([]op, 0, 1+len(derived))
	ops = append(ops, op{kind: recArrival, file: parent})
	for _, d := range derived {
		d.ID = s.nextID
		s.nextID++
		d.Origin = parent.ID
		ids = append(ids, d.ID)
		ops = append(ops, op{kind: recDerived, file: d})
	}
	s.mu.Unlock()
	if err := s.commit(ops); err != nil {
		return nil, err
	}
	return ids, nil
}

// RecordDelivery durably records that file id was delivered to sub.
func (s *Store) RecordDelivery(id uint64, sub string, at time.Time) error {
	return s.commit([]op{{kind: recDelivery, id: id, sub: sub, at: at}})
}

// DeliveryRecord is one (file, subscriber) delivery receipt.
type DeliveryRecord struct {
	ID  uint64
	Sub string
	At  time.Time
}

// RecordDeliveryBatch records several deliveries — any files, any
// subscribers — in one WAL transaction: all of them survive a crash or
// none does. The delivery engine's receipt committer uses it to pay
// one flush window for everything acked on the wire meanwhile.
func (s *Store) RecordDeliveryBatch(recs []DeliveryRecord) error {
	ops := make([]op, len(recs))
	for i, r := range recs {
		ops[i] = op{kind: recDelivery, id: r.ID, sub: r.Sub, at: r.At}
	}
	return s.commit(ops)
}

// RecordExpire durably marks a file as expired from the retention
// window; expired files never re-enter delivery queues.
func (s *Store) RecordExpire(id uint64) error {
	return s.commit([]op{{kind: recExpire, id: id}})
}

// RecordQuarantine durably marks an arrival whose staged payload was
// found missing or corrupt; quarantined files never enter delivery
// queues (§4.2 reconciliation — a diverged receipt must not crash a
// transfer mid-stream).
func (s *Store) RecordQuarantine(id uint64) error {
	return s.commit([]op{{kind: recQuarantine, id: id}})
}

// Quarantined reports whether id is quarantined.
func (s *Store) Quarantined(id uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quarantined[id]
}

// IsExpired reports whether id has expired from the retention window.
func (s *Store) IsExpired(id uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.expired[id]
}

// AllFiles returns every arrival receipt in id order, regardless of
// expiry or quarantine state — the startup reconciliation input.
func (s *Store) AllFiles() []FileMeta {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]FileMeta, 0, len(s.files))
	for _, f := range s.files {
		out = append(out, *f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// File returns the arrival receipt for id.
func (s *Store) File(id uint64) (FileMeta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.files[id]
	if !ok {
		return FileMeta{}, false
	}
	return *f, true
}

// Delivered reports whether id has been delivered to sub — by an
// individual receipt or by a group cursor past the file's log
// position.
func (s *Store) Delivered(id uint64, sub string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deliveredLocked(id, sub)
}

// DeliveredCount returns how many files have been delivered to sub.
func (s *Store) DeliveredCount(sub string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.delivered[sub])
}

// FilesInFeed returns the arrival receipts of all unexpired files in a
// feed, in arrival order.
func (s *Store) FilesInFeed(feed string) []FileMeta {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := s.feedFiles[feed]
	out := make([]FileMeta, 0, len(ids))
	for _, id := range ids {
		if s.expired[id] || s.quarantined[id] {
			continue
		}
		if f, ok := s.files[id]; ok {
			out = append(out, *f)
		}
	}
	return out
}

// FeedLog returns a feed's consumable-log view: every receipt in the
// feed in id order, including expired files (their bytes live on in
// the archive until compaction folds the receipt into the manifest)
// but excluding quarantined ones (reconciliation withdrew them from
// every consumer-facing surface). The HTTP data plane merges this with
// the archive manifest so a seq cursor never observes a transient hole
// while a file crosses the staging→archive boundary.
func (s *Store) FeedLog(feed string) []FileMeta {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := s.feedFiles[feed]
	out := make([]FileMeta, 0, len(ids))
	for _, id := range ids {
		if s.quarantined[id] {
			continue
		}
		if f, ok := s.files[id]; ok {
			out = append(out, *f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// PendingFor recomputes a subscriber's delivery queue: every unexpired
// file in any of feeds that has not been delivered to sub, in arrival
// order. This is the §4.2 queue recomputation used on subscriber
// reconnect, new-subscriber backfill, and server restart.
func (s *Store) PendingFor(sub string, feeds []string) []FileMeta {
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := make(map[uint64]bool)
	var out []FileMeta
	for _, feed := range feeds {
		for _, id := range s.feedFiles[feed] {
			if seen[id] || s.expired[id] || s.quarantined[id] {
				continue
			}
			seen[id] = true
			if s.deliveredLocked(id, sub) {
				continue
			}
			if f, ok := s.files[id]; ok {
				out = append(out, *f)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ExpireBefore marks every file whose DataTime (or, lacking one,
// Arrived time) is before cutoff as expired, returning the receipts so
// the archiver can take custody of the staged content.
func (s *Store) ExpireBefore(cutoff time.Time) ([]FileMeta, error) {
	s.mu.Lock()
	var victims []FileMeta
	for id, f := range s.files {
		if s.expired[id] || s.quarantined[id] {
			continue
		}
		t := f.DataTime
		if t.IsZero() {
			t = f.Arrived
		}
		if t.Before(cutoff) {
			victims = append(victims, *f)
		}
	}
	s.mu.Unlock()
	sort.Slice(victims, func(i, j int) bool { return victims[i].ID < victims[j].ID })
	if len(victims) == 0 {
		return nil, nil
	}
	ops := make([]op, len(victims))
	for i, f := range victims {
		ops[i] = op{kind: recExpire, id: f.ID}
	}
	if err := s.commit(ops); err != nil {
		return nil, err
	}
	return victims, nil
}

// Stats summarizes store state for monitoring.
type Stats struct {
	Files       int
	Expired     int
	Quarantined int
	Feeds       int
	Subscribers int
	Groups      int
	Commits     int
	WALBytes    int64
}

// Stats returns a snapshot of store statistics.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Files:       len(s.files),
		Expired:     len(s.expired),
		Quarantined: len(s.quarantined),
		Feeds:       len(s.feedFiles),
		Subscribers: len(s.delivered),
		Groups:      len(s.groups),
		Commits:     s.commits,
		WALBytes:    s.walBytes,
	}
}

// checkpointState is the gob-serialized snapshot.
type checkpointState struct {
	NextID      uint64
	Files       map[uint64]*FileMeta
	FeedFiles   map[string][]uint64
	Delivered   map[string]map[uint64]time.Time
	Expired     map[uint64]bool
	Quarantined map[uint64]bool
	Groups      map[string]*groupCheckpoint
}

// Checkpoint atomically persists the full in-memory state and resets
// the WAL, bounding recovery time. When replication is armed the
// encoded snapshot also ships to the standby, which installs it and
// resets its shipped WAL — keeping compaction (which deletes receipts
// only through a checkpoint) coherent across both nodes.
func (s *Store) Checkpoint() error {
	// Exclude all in-flight commits for the snapshot + WAL reset.
	s.commitLock.Lock()
	defer s.commitLock.Unlock()
	s.mu.Lock()
	state, err := s.encodeStateLocked()
	s.mu.Unlock()
	if err != nil {
		return fmt.Errorf("receipts: checkpoint encode: %w", err)
	}
	// The install's directory fsync keeps a crash from reverting to a
	// stale (or no) checkpoint after the WAL below has already been
	// reset — without it, the rename may still be sitting in the page
	// cache when the reset hits the disk, and recovery would see
	// neither the history nor the snapshot.
	if err := installCheckpoint(s.fs, s.dir, state); err != nil {
		return err
	}
	s.mu.Lock()
	s.walBytes = 0
	s.mu.Unlock()
	if m := s.opts.Metrics; m != nil {
		m.Checkpoints.Inc()
		m.WALBytes.Set(0)
	}
	if err := s.wal.reset(); err != nil {
		return err
	}
	if s.ship.Checkpoint != nil {
		if err := s.ship.Checkpoint(state); err != nil {
			return fmt.Errorf("receipts: replicate checkpoint: %w", err)
		}
	}
	return nil
}

// loadCheckpoint restores state from the latest checkpoint, if any.
func (s *Store) loadCheckpoint() error {
	f, err := s.fs.Open(filepath.Join(s.dir, checkpointName))
	if err != nil && !fileExists(s.fs, filepath.Join(s.dir, checkpointName)) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("receipts: open checkpoint: %w", err)
	}
	defer f.Close()
	var st checkpointState
	if err := gob.NewDecoder(f).Decode(&st); err != nil {
		return fmt.Errorf("receipts: decode checkpoint: %w", err)
	}
	s.nextID = st.NextID
	if st.Files != nil {
		s.files = st.Files
	}
	if st.FeedFiles != nil {
		s.feedFiles = st.FeedFiles
	}
	if st.Delivered != nil {
		s.delivered = st.Delivered
	}
	if st.Expired != nil {
		s.expired = st.Expired
	}
	if st.Quarantined != nil {
		s.quarantined = st.Quarantined
	}
	for name, gc := range st.Groups {
		g := &groupState{
			base:    gc.Base,
			log:     gc.Log,
			pos:     make(map[uint64]int, len(gc.Log)),
			members: make(map[string]*GroupMember, len(gc.Members)),
		}
		for i, id := range gc.Log {
			g.pos[id] = gc.Base + i
		}
		for sub, m := range gc.Members {
			mm := m
			g.members[sub] = &mm
		}
		s.groups[name] = g
	}
	return nil
}

// fileExists reports whether path exists via the seam.
func fileExists(fsys diskfault.FS, path string) bool {
	_, err := fsys.Stat(path)
	return err == nil
}

// Close flushes and closes the store.
func (s *Store) Close() error {
	s.commitLock.Lock()
	defer s.commitLock.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if !s.opts.NoSync {
		if err := s.wal.sync(); err != nil {
			s.wal.close()
			return err
		}
	}
	return s.wal.close()
}
