package receipts

import (
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"slices"
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
	// feedFiles holds file ids per feed in id order.
	feedFiles map[string][]uint64
	// committing holds the ids of arrivals whose transaction has neither
	// applied nor failed, ascending (ids are assigned under mu). FeedLog
	// shows no id at or above its first: commits finish out of order,
	// and a cursor that read id n+1 while n was committing would pass n
	// for good. A failed id leaves it unapplied even when its record
	// may be durable (the local WAL synced, shipping to a standby
	// failed); a restart's replay then brings it back below later ids.
	committing []uint64
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
	// spareQueue and spareResults are the cleared backing arrays of
	// the batch flushed last: the next batch's queue reuses them.
	spareQueue   [][]byte
	spareResults []chan error
	busy         bool
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
			s.feedFiles[feed] = insertID(s.feedFiles[feed], f.ID)
		}
		if o.kind == recArrival && len(s.committing) > 0 {
			s.settleLocked(f.ID)
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

// insertID adds id to the ascending ids from the tail: transactions
// apply nearly in id order, so the walk is short.
func insertID(ids []uint64, id uint64) []uint64 {
	ids = append(ids, id)
	i := len(ids) - 1
	for ; i > 0 && ids[i-1] > id; i-- {
		ids[i] = ids[i-1]
	}
	ids[i] = id
	return ids
}

// settleLocked takes id out of committing, if it is there. Caller
// holds mu.
func (s *Store) settleLocked(id uint64) {
	for i, c := range s.committing {
		if c == id {
			s.committing = append(s.committing[:i], s.committing[i+1:]...)
			return
		}
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
	return commitRecords(s, ops, func(o op) op { return o })
}

// payloadPool holds transaction encode buffers. A buffer is free again
// once append returns: the WAL copies it into its frame and the ship
// hook keeps nothing (ShipHooks.Batch). Buffers past maxPooledPayload
// (a large expiry batch) are left to the collector.
var payloadPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledPayload = 64 << 10

// commitRecords is commit over the records toOp makes of items, so a
// caller with its own record type commits it without building an []op.
func commitRecords[T any](s *Store, items []T, toOp func(T) op) error {
	buf := payloadPool.Get().(*[]byte)
	payload := (*buf)[:0]
	for _, it := range items {
		payload = encodeOp(payload, toOp(it))
	}
	s.commitLock.RLock()
	err := s.append(payload)
	if cap(payload) <= maxPooledPayload {
		*buf = payload
		payloadPool.Put(buf)
	}
	if err != nil {
		s.commitLock.RUnlock()
		return err
	}
	s.mu.Lock()
	for _, it := range items {
		s.applyLocked(toOp(it))
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
	done := donePool.Get().(chan error)
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
		return putDone(done)
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
		g.queue = g.spareQueue
		g.results = g.spareResults
		g.mu.Unlock()
		err := s.walAppend(batch)
		if m := s.opts.Metrics; m != nil && m.BatchSize != nil {
			m.BatchSize.Observe(float64(len(batch)))
		}
		for _, ch := range waiters {
			ch <- err
		}
		// Keep the flushed batch's arrays for the next one, cleared so
		// no payload or channel stays reachable through them.
		clear(batch)
		clear(waiters)
		g.mu.Lock()
		g.spareQueue = batch[:0]
		g.spareResults = waiters[:0]
	}
	g.busy = false
	g.mu.Unlock()
	return putDone(done)
}

// donePool recycles the channels committers wait on. Each gets exactly
// one send (the flush result) and one receive before it goes back, so
// a pooled channel is always empty.
var donePool = sync.Pool{New: func() any { return make(chan error, 1) }}

// putDone receives the flush result from done and recycles done.
func putDone(done chan error) error {
	err := <-done
	donePool.Put(done)
	return err
}

// RecordArrival durably records a newly received file and returns its
// assigned id: an arrival with no derived files.
func (s *Store) RecordArrival(f FileMeta) (uint64, error) {
	return s.RecordArrivalDerived(f, nil)
}

// RecordArrivalDerived durably records one arrival plus the files a
// plan derived from it, in a single WAL transaction: either the whole
// family survives a crash or none of it does, so a derived receipt's
// Origin always resolves. Each derived meta's Origin is set to the
// parent's assigned id. Returns the parent id; the derived files take
// the ids after it, in order (derived[i] is parent id + 1 + i).
func (s *Store) RecordArrivalDerived(parent FileMeta, derived []FileMeta) (uint64, error) {
	var one [1]op
	ops := one[:]
	if len(derived) > 0 {
		ops = make([]op, 1+len(derived))
	}
	s.mu.Lock()
	parent.ID = s.nextID
	s.nextID += uint64(1 + len(derived))
	s.committing = append(s.committing, parent.ID)
	s.mu.Unlock()
	ops[0] = op{kind: recArrival, file: parent}
	for i, d := range derived {
		d.ID = parent.ID + 1 + uint64(i)
		d.Origin = parent.ID
		ops[1+i] = op{kind: recDerived, file: d}
	}
	if err := s.commit(ops); err != nil {
		// Applied already if only the checkpoint behind it failed.
		s.mu.Lock()
		s.settleLocked(parent.ID)
		s.mu.Unlock()
		return 0, err
	}
	return parent.ID, nil
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
	return commitRecords(s, recs, func(r DeliveryRecord) op {
		return op{kind: recDelivery, id: r.ID, sub: r.Sub, at: r.At}
	})
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
// feed, in id order.
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

// FeedPage returns one page of a feed's consumable-log view: at most
// limit receipts with id >= from, in id order, expired ones included
// (their bytes live on in the archive until compaction) and
// quarantined ones withdrawn. The view stops below the first id still
// committing, returned as below (the largest id when none): commits
// finish out of order, and a cursor that read id n+1 while n was
// committing would pass n for good. head is the view's last id (0 when
// empty). An id whose commit failed after its WAL record became
// durable is not covered: see committing.
func (s *Store) FeedPage(feed string, from uint64, limit int) (page []FileMeta, below, head uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	below = ^uint64(0)
	if len(s.committing) > 0 {
		below = s.committing[0]
	}
	ids := s.feedFiles[feed]
	i, _ := slices.BinarySearch(ids, from)
	end, _ := slices.BinarySearch(ids, below)
	for j := end - 1; j >= 0 && head == 0; j-- {
		if !s.quarantined[ids[j]] {
			head = ids[j]
		}
	}
	page = make([]FileMeta, 0, min(limit, max(end-i, 0)))
	for ; i < end && len(page) < limit; i++ {
		if f, ok := s.files[ids[i]]; ok && !s.quarantined[ids[i]] {
			page = append(page, *f)
		}
	}
	return page, below, head
}

// FeedLog returns a feed's whole consumable-log view (see FeedPage).
// It is kept, as one unbounded page, for the benchmark harness's
// per-layer walk.
func (s *Store) FeedLog(feed string) []FileMeta {
	page, _, _ := s.FeedPage(feed, 0, math.MaxInt)
	return page
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
		// A checkpoint written before the lists were kept in id order
		// holds them in apply order.
		for _, ids := range s.feedFiles {
			if !slices.IsSorted(ids) {
				slices.Sort(ids)
			}
		}
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
