// Package delivery implements Bistro's reliable feed delivery engine
// (SIGMOD'11 §4.2–§4.3). It consumes classified, staged files and
// guarantees that every file eventually reaches every interested
// subscriber (or, for hybrid push-pull subscribers, that a
// notification does):
//
//   - jobs are scheduled by the partitioned scheduler (one partition
//     per subscriber responsiveness level, fixed worker allocations,
//     EDF within a partition);
//   - successful transmissions are durably recorded in the receipt
//     store before triggers fire;
//   - transfer failures accumulate until the subscriber is flagged
//     offline, its queued jobs are dropped, and a retry prober takes
//     over; on reconnect the delivery queue is recomputed from the
//     receipt database and backfilled concurrently with new real-time
//     traffic;
//   - delivery of one staged file to several subscribers in the same
//     partition is grouped so the file is read once (locality
//     heuristic).
package delivery

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"bistro/internal/backoff"
	"bistro/internal/clock"
	"bistro/internal/config"
	"bistro/internal/diskfault"
	"bistro/internal/metrics"
	"bistro/internal/receipts"
	"bistro/internal/scheduler"
	"bistro/internal/transport"
	"bistro/internal/trigger"
)

// ErrReceiptMissing marks a job skipped because its arrival receipt
// was missing from (or quarantined in) the receipt store at delivery
// time. The server raises a per-feed alarm on it: delivering a file
// with zero-value metadata (no checksum, no size) would corrupt the
// subscriber-side integrity check silently.
var ErrReceiptMissing = errors.New("delivery: arrival receipt missing or quarantined")

// Metrics holds the delivery engine's instrumentation. Nil (or any
// nil field) disables that series at no hot-path cost.
type Metrics struct {
	// Delivered, Bytes, Failures are per-subscriber counters.
	Delivered *metrics.CounterVec
	Bytes     *metrics.CounterVec
	Failures  *metrics.CounterVec
	// ReceiptMissing counts jobs skipped by the receipt guard.
	ReceiptMissing *metrics.Counter
	// ReceiptWriteFailures counts successful transfers whose receipt
	// record could not be committed — the exactly-once ledger is behind
	// the subscriber until restart replays the gap (safe direction:
	// re-send).
	ReceiptWriteFailures *metrics.Counter
	// StagingReadBytes counts payload bytes read from staging or the
	// archive as they are read, whether whole into memory or by a
	// transport streaming a large file (the opener counts them; see
	// Options.Open). Under channel fan-out this grows O(files), not
	// O(subscribers × files) — the E18 measurement.
	StagingReadBytes *metrics.Counter
	// Retries counts transient failures requeued with a backoff delay.
	Retries *metrics.Counter
	// ChannelFiles / ChannelFanout / ChannelDetaches count, per
	// channel: files fanned out, member transfers made, and members
	// dropped mid-fan-out. ChannelCatchup counts catch-up deliveries to
	// lagging members; ChannelMembers gauges current attached members.
	ChannelFiles    *metrics.CounterVec
	ChannelFanout   *metrics.CounterVec
	ChannelDetaches *metrics.CounterVec
	ChannelCatchup  *metrics.CounterVec
	ChannelMembers  *metrics.GaugeVec
	// ReceiptBatchSize observes how many delivery receipts each
	// committer transaction carried; ReceiptsPending gauges transfers
	// acked on the wire whose receipt is not yet durable.
	ReceiptBatchSize *metrics.Histogram
	ReceiptsPending  *metrics.Gauge
	// Propagation observes end-to-end source→subscriber latency
	// (arrival to successful delivery, seconds) for real-time jobs —
	// the paper's sub-minute claim. Backfill is excluded: its latency
	// measures outage length, not pipeline speed.
	Propagation *metrics.Histogram
}

// NewMetrics registers the delivery metric families on r using the
// canonical names catalogued in docs/OBSERVABILITY.md.
func NewMetrics(r *metrics.Registry) *Metrics {
	return &Metrics{
		Delivered: r.CounterVec("bistro_delivery_delivered_total",
			"Successful transfers (including notifications) by subscriber.", "subscriber"),
		Bytes: r.CounterVec("bistro_delivery_bytes_total",
			"Payload bytes delivered by subscriber.", "subscriber"),
		Failures: r.CounterVec("bistro_delivery_failures_total",
			"Failed transfer attempts by subscriber.", "subscriber"),
		ReceiptMissing: r.Counter("bistro_delivery_receipt_missing_total",
			"Jobs skipped because the arrival receipt was missing or quarantined."),
		ReceiptWriteFailures: r.Counter("bistro_delivery_receipt_write_failures_total",
			"Successful transfers whose delivery receipt failed to commit."),
		StagingReadBytes: r.Counter("bistro_delivery_staging_read_bytes_total",
			"Payload bytes read from staging or the archive for delivery, counted as read (streamed files included), not as declared at open."),
		Retries: r.Counter("bistro_delivery_retries_total",
			"Transient failures requeued with a backoff delay."),
		ChannelFiles: r.CounterVec("bistro_channel_files_total",
			"Files fanned out by delivery channel.", "channel"),
		ChannelFanout: r.CounterVec("bistro_channel_fanout_total",
			"Member transfers made by delivery channel.", "channel"),
		ChannelDetaches: r.CounterVec("bistro_channel_detaches_total",
			"Members detached mid-fan-out by delivery channel.", "channel"),
		ChannelCatchup: r.CounterVec("bistro_channel_catchup_files_total",
			"Catch-up deliveries to lagging channel members.", "channel"),
		ChannelMembers: r.GaugeVec("bistro_channel_members",
			"Members currently attached to the delivery channel.", "channel"),
		ReceiptBatchSize: r.Histogram("bistro_delivery_receipt_batch_size",
			"Delivery receipts per committer transaction.",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256}),
		ReceiptsPending: r.Gauge("bistro_delivery_receipts_pending",
			"Transfers acked on the wire whose delivery receipt is not yet durable."),
		Propagation: r.Histogram("bistro_delivery_propagation_seconds",
			"End-to-end arrival→delivery latency for real-time jobs.", nil),
	}
}

// subMetrics caches one subscriber's resolved counter series so the
// per-delivery path is atomic adds only (no vec lookups).
type subMetrics struct {
	delivered *metrics.Counter
	bytes     *metrics.Counter
	failures  *metrics.Counter
}

// EventKind classifies delivery engine events for the logging
// subsystem.
type EventKind int

// Event kinds.
const (
	EvDelivered EventKind = iota
	EvNotified
	EvDeliveryFailed
	EvSubscriberOffline
	EvSubscriberOnline
	EvBackfillQueued
	// EvRetryScheduled: a transient failure requeued the job with a
	// backoff delay (Delay, Attempt populated).
	EvRetryScheduled
	// EvCircuitOpen: the subscriber's circuit breaker opened; no
	// transfers until a half-open probe succeeds (Delay = probe wait).
	EvCircuitOpen
	// EvCircuitHalfOpen: the breaker admitted a single recovery probe.
	EvCircuitHalfOpen
	// EvReceiptWriteFailed: a transfer succeeded but its delivery
	// receipt could not be committed. The subscriber holds bytes the
	// ledger does not know about until a restart replays the gap.
	EvReceiptWriteFailed
	// EvChannelAttached: a member reached its channel's frontier and
	// now rides the shared fan-out (Subscriber = member, Feed = the
	// channel's feed, Name = the channel).
	EvChannelAttached
	// EvChannelDetached: a member dropped out of the shared fan-out;
	// its cursor freezes until catch-up re-attaches it.
	EvChannelDetached
)

func (k EventKind) String() string {
	switch k {
	case EvDelivered:
		return "delivered"
	case EvNotified:
		return "notified"
	case EvDeliveryFailed:
		return "delivery-failed"
	case EvSubscriberOffline:
		return "subscriber-offline"
	case EvSubscriberOnline:
		return "subscriber-online"
	case EvBackfillQueued:
		return "backfill-queued"
	case EvRetryScheduled:
		return "retry-scheduled"
	case EvCircuitOpen:
		return "circuit-open"
	case EvCircuitHalfOpen:
		return "circuit-half-open"
	case EvReceiptWriteFailed:
		return "receipt-write-failed"
	case EvChannelAttached:
		return "channel-attached"
	case EvChannelDetached:
		return "channel-detached"
	default:
		return "unknown"
	}
}

// Event is one observable delivery occurrence.
type Event struct {
	Kind       EventKind
	Subscriber string
	Feed       string
	Name       string
	FileID     uint64
	Count      int           // backfill-queued: number of files
	Delay      time.Duration // retry-scheduled / circuit-open: wait time
	Attempt    int           // retry-scheduled: consecutive failure count
	Err        error
	At         time.Time
}

// Options configure an Engine.
type Options struct {
	// Clock drives deadlines and retry timers.
	Clock clock.Clock
	// Store is the receipt database.
	Store *receipts.Store
	// Transport carries bytes to subscribers.
	Transport transport.Transport
	// Subscribers is the configured subscriber set.
	Subscribers []*config.Subscriber
	// Open opens a stored file by its staged-relative path, from
	// staging or else the archive (archive.Archiver.Opener), counting
	// the bytes read into Metrics.StagingReadBytes. Its errors are
	// permanent: a stored file that cannot be read fails its job and
	// never counts against the subscriber. Required.
	Open func(stagedPath string) (io.ReadCloser, error)
	// Scheduler configures the partitioned scheduler. Zero value gets
	// a sensible two-partition default.
	Scheduler scheduler.Config
	// Deadline is the per-file delivery target used for EDF deadlines.
	// Default 1 minute (the paper's sub-minute propagation goal).
	Deadline time.Duration
	// OfflineAfter flags a subscriber offline after this many
	// consecutive transfer failures. Default 3. Used as the circuit
	// breaker threshold unless Backoff.Threshold is set explicitly.
	OfflineAfter int
	// Backoff is the engine-wide retry/circuit-breaker policy. Zero
	// fields take production defaults; per-subscriber config overrides
	// (Subscriber.Backoff, and the legacy Retry interval as the base
	// delay) are layered on top.
	Backoff backoff.Policy
	// FeedPriority maps feed paths to delivery priorities (from feed
	// config); added to the subscriber-class priority under
	// prioritized scheduling policies.
	FeedPriority map[string]int
	// TriggerInvoker runs local trigger commands. Default: trigger.ExecInvoker.
	TriggerInvoker trigger.Invoker
	// OnEvent receives engine events (may be nil). Called
	// synchronously; keep it fast.
	OnEvent func(Event)
	// Metrics, when non-nil, receives delivery instrumentation.
	Metrics *Metrics
	// ReplayPartition, when non-zero, is the index of a scheduler
	// partition dedicated to replaying archived history. Subscriber
	// class routing skips it (bulk subscribers map to the last
	// *non-replay* partition); only pinned replay jobs run there.
	ReplayPartition int
	// HistoryMeta resolves file metadata for ids absent from the
	// receipt store: compacted history being re-streamed by a replay
	// session. Nil disables the fallback.
	HistoryMeta func(id uint64) (receipts.FileMeta, bool)
	// Channels configures shared per-feed delivery channels: one
	// staging read + one fan-out per file, with group receipts in the
	// receipt store instead of per-member records.
	Channels []ChannelSpec
	// Transform maps a feed to a per-push payload transform, or nil
	// for feeds delivered verbatim. This is the at-delivery placement
	// of a plan's enrich operator: the staged file stays lean and the
	// join runs once per subscriber push, so the transform's cost is
	// multiplied by fan-out (the trade E20 measures). Transformed
	// deliveries always take the in-memory path — the bytes on the
	// wire differ from the staged bytes, so CRC and size are
	// recomputed per push and streaming from staging is not an option.
	// Channel fan-out stays raw (members share one staged read).
	Transform func(feed string) func([]byte) ([]byte, error)
}

// Engine is the delivery subsystem.
type Engine struct {
	opts  Options
	clk   clock.Clock
	sched *scheduler.Scheduler
	store *receipts.Store
	trans transport.Transport
	trig  *trigger.Engine
	// streamMin is streamThreshold, lowered by in-package tests.
	streamMin int64

	mu   sync.Mutex
	subs map[string]*config.Subscriber
	// subList holds subs in registration order. It is only appended
	// to, so a copy of its header is a snapshot that needs no copying.
	subList []*config.Subscriber
	offline map[string]bool
	states  map[string]*subState
	probing map[string]bool
	stats   map[string]*SubscriberStats
	subMets map[string]*subMetrics
	// channels maps channel name to broker state; chanFeeds maps a
	// feed to its channels; memberChans maps a subscriber to the
	// channels it is registered with (attached or not).
	channels    map[string]*channel
	chanFeeds   map[string][]*channel
	memberChans map[string][]string

	// acked is the receipt committer's FIFO (committer.go); unrecorded
	// holds, per subscriber, the files in it; trigLanes holds the
	// per-subscriber trigger lanes the committer feeds. unrecMu guards
	// both maps.
	acked      chan ackedDelivery
	commitDone chan struct{}
	unrecMu    sync.Mutex
	unrecorded map[string]map[uint64]struct{}
	trigLanes  map[string]*triggerLane
	trigWG     sync.WaitGroup

	wg      sync.WaitGroup
	stopCh  chan struct{}
	stopMu  sync.Mutex
	started bool
	stopped bool
}

// streamThreshold is the stored size from which a file streams from
// staging or the archive instead of being read into memory once and
// shared by its group, channel or transform; both put one Deliver frame
// on the wire.
const streamThreshold = 4 << 20

// DefaultSchedulerConfig is the production partition layout: an
// interactive partition for responsive subscribers and a bulk
// partition (with a reserved backfill worker) for the rest.
func DefaultSchedulerConfig() scheduler.Config {
	return scheduler.Config{
		Partitions: []scheduler.PartitionConfig{
			{Name: "interactive", Workers: 2, Policy: scheduler.EDF},
			{Name: "bulk", Workers: 3, BackfillWorkers: 1, Policy: scheduler.EDF},
		},
		Backfill:      scheduler.BackfillConcurrent,
		GroupSameFile: true,
	}
}

// New builds a delivery engine. Call Start to launch workers.
func New(opts Options) (*Engine, error) {
	if opts.Clock == nil {
		opts.Clock = clock.NewReal()
	}
	if opts.Store == nil {
		return nil, fmt.Errorf("delivery: receipt store required")
	}
	if opts.Transport == nil {
		return nil, fmt.Errorf("delivery: transport required")
	}
	if opts.Open == nil {
		return nil, fmt.Errorf("delivery: stored-file opener required")
	}
	if opts.Deadline == 0 {
		opts.Deadline = time.Minute
	}
	if opts.OfflineAfter == 0 {
		opts.OfflineAfter = 3
	}
	if len(opts.Scheduler.Partitions) == 0 {
		opts.Scheduler = DefaultSchedulerConfig()
	}
	if opts.Scheduler.Clock == nil {
		// Delayed retries must tick on the engine's clock (simulated in
		// experiments).
		opts.Scheduler.Clock = opts.Clock
	}
	if opts.TriggerInvoker == nil {
		opts.TriggerInvoker = trigger.ExecInvoker{}
	}
	sched, err := scheduler.New(opts.Scheduler)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		opts:        opts,
		clk:         opts.Clock,
		sched:       sched,
		store:       opts.Store,
		trans:       opts.Transport,
		streamMin:   streamThreshold,
		subs:        make(map[string]*config.Subscriber),
		offline:     make(map[string]bool),
		states:      make(map[string]*subState),
		probing:     make(map[string]bool),
		stats:       make(map[string]*SubscriberStats),
		subMets:     make(map[string]*subMetrics),
		channels:    make(map[string]*channel),
		chanFeeds:   make(map[string][]*channel),
		memberChans: make(map[string][]string),
		acked:       make(chan ackedDelivery, receiptQueueDepth),
		commitDone:  make(chan struct{}),
		unrecorded:  make(map[string]map[uint64]struct{}),
		trigLanes:   make(map[string]*triggerLane),
		stopCh:      make(chan struct{}),
	}
	for _, s := range opts.Subscribers {
		e.subs[s.Name] = s
		e.subList = append(e.subList, s)
		e.sched.AssignSubscriber(s.Name, e.partitionFor(s))
	}
	if err := e.initChannels(opts.Channels); err != nil {
		return nil, err
	}
	// Trigger invocations route remote triggers through the transport
	// and local ones through the configured invoker.
	e.trig = trigger.NewEngine(e.clk, trigger.InvokerFunc(func(inv trigger.Invocation) error {
		if inv.Remote {
			return e.trans.Trigger(inv.Subscriber, inv.Command, inv.Paths)
		}
		return opts.TriggerInvoker.Invoke(inv)
	}))
	return e, nil
}

// subscriber returns the configuration for sub under the lock.
func (e *Engine) subscriber(name string) *config.Subscriber {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.subs[name]
}

// subState is the per-subscriber fault-tolerance machinery: a circuit
// breaker deciding online/offline and an in-queue retry schedule.
type subState struct {
	pol     backoff.Policy
	breaker *backoff.Breaker
	retry   *backoff.Backoff
}

// policyFor layers the per-subscriber overrides onto the engine-wide
// policy: the legacy per-subscriber retry interval becomes the base
// delay, OfflineAfter the breaker threshold, and an explicit
// config-level backoff block wins over both.
func (e *Engine) policyFor(s *config.Subscriber) backoff.Policy {
	p := e.opts.Backoff
	if p.Threshold == 0 {
		p.Threshold = e.opts.OfflineAfter
	}
	if s != nil {
		if p.Base == 0 && s.Retry > 0 {
			p.Base = s.Retry
		}
		if s.Backoff != nil {
			p = s.Backoff.Apply(p)
		}
	}
	return p.WithDefaults()
}

// stateFor returns (creating on first use) a subscriber's fault state.
func (e *Engine) stateFor(sub string) *subState {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.states[sub]
	if st == nil {
		pol := e.policyFor(e.subs[sub])
		st = &subState{
			pol:     pol,
			breaker: backoff.NewBreaker(pol, backoff.Seed(sub+"/breaker")),
			retry:   backoff.New(pol, backoff.Seed(sub+"/retry")),
		}
		e.states[sub] = st
	}
	return st
}

// AddSubscriber registers a subscriber at runtime (§4.2: new
// subscribers can be added at any moment and receive the full
// available history). The caller must have registered the subscriber
// with the transport first; the engine assigns its partition and
// queues the full-history backfill.
func (e *Engine) AddSubscriber(s *config.Subscriber) error {
	if err := e.AddSubscriberDeferred(s); err != nil {
		return err
	}
	e.QueueBackfill(s.Name)
	return nil
}

// AddSubscriberDeferred registers a subscriber without queueing its
// staged backlog. Replay handoff needs the gap: it registers the
// subscriber, snapshots the backfill job set with QueueBackfill, and
// hands exactly that set to the replay session as its skip list — the
// watermark across which archive and staging delivery must neither
// overlap nor leave a hole.
func (e *Engine) AddSubscriberDeferred(s *config.Subscriber) error {
	e.mu.Lock()
	if _, exists := e.subs[s.Name]; exists {
		e.mu.Unlock()
		return fmt.Errorf("delivery: subscriber %q already registered", s.Name)
	}
	e.subs[s.Name] = s
	e.subList = append(e.subList, s)
	e.mu.Unlock()
	return e.sched.AssignSubscriber(s.Name, e.partitionFor(s))
}

// partitionFor maps a subscriber's configured class to a partition
// index: "interactive" → first partition, "bulk" or unset → the last
// partition that is not the replay partition.
func (e *Engine) partitionFor(s *config.Subscriber) int {
	n := len(e.opts.Scheduler.Partitions)
	if s.Class == "interactive" {
		return 0
	}
	last := n - 1
	if e.opts.ReplayPartition > 0 && last == e.opts.ReplayPartition && last > 0 {
		last--
	}
	return last
}

// SubmitReplay enqueues one replay job, pinned to the dedicated replay
// partition when one is configured (falling back to ordinary
// subscriber routing otherwise, where it still runs as backfill).
func (e *Engine) SubmitReplay(j *scheduler.Job) {
	if p := e.opts.ReplayPartition; p > 0 {
		if err := e.sched.SubmitTo(p, j); err == nil {
			return
		}
	}
	e.sched.Submit(j)
}

// Scheduler exposes the underlying scheduler (monitoring, tests).
func (e *Engine) Scheduler() *scheduler.Scheduler { return e.sched }

// Triggers exposes the trigger engine (punctuation routing).
func (e *Engine) Triggers() *trigger.Engine { return e.trig }

// Start launches the partition worker pools and queues backfill for
// every subscriber's undelivered history (covers server restart, new
// subscribers, and revised feed definitions uniformly).
func (e *Engine) Start() {
	e.stopMu.Lock()
	e.started = true
	e.stopMu.Unlock()
	go e.commitLoop()
	for pi, pc := range e.sched.Partitions() {
		rt := pc.Workers - pc.BackfillWorkers
		for w := 0; w < rt; w++ {
			e.wg.Add(1)
			go e.worker(pi, scheduler.LaneRealtime)
		}
		for w := 0; w < pc.BackfillWorkers; w++ {
			e.wg.Add(1)
			go e.worker(pi, scheduler.LaneBackfill)
		}
	}
	e.startChannels()
	e.mu.Lock()
	names := make([]string, 0, len(e.subs))
	for name := range e.subs {
		names = append(names, name)
	}
	e.mu.Unlock()
	for _, name := range names {
		e.QueueBackfill(name)
	}
}

// Stop drains workers, commits the receipt of every transfer already
// acked on the wire, runs the triggers of those deliveries, and closes
// open trigger batches. The receipt store must outlive the call.
func (e *Engine) Stop() {
	e.stopMu.Lock()
	if e.stopped {
		e.stopMu.Unlock()
		return
	}
	e.stopped = true
	started := e.started
	close(e.stopCh)
	e.stopMu.Unlock()
	e.sched.Close()
	e.wg.Wait()
	// Only workers queue receipts and they have all exited.
	close(e.acked)
	if started {
		<-e.commitDone
	}
	e.stopTriggers()
	e.trig.Flush()
}

// emit publishes an event.
func (e *Engine) emit(ev Event) {
	ev.At = e.clk.Now()
	if e.opts.OnEvent != nil {
		e.opts.OnEvent(ev)
	}
}

// EnqueueFile schedules delivery of a freshly staged file to every
// interested online subscriber. Offline subscribers skip the queue —
// their receipt-database backfill will pick the file up on reconnect.
func (e *Engine) EnqueueFile(meta receipts.FileMeta) {
	now := e.clk.Now()
	e.enqueueChannels(meta, now, false)
	e.mu.Lock()
	subs := e.subList
	e.mu.Unlock()
	for _, s := range subs {
		if !e.interested(s, meta.Feeds) {
			continue
		}
		// Members of a channel covering one of the file's feeds receive
		// it through the shared fan-out (or catch-up), never as an
		// individual job.
		if e.channelCovered(s.Name, meta.Feeds) {
			continue
		}
		e.mu.Lock()
		off := e.offline[s.Name]
		e.mu.Unlock()
		if off || e.isUnrecorded(s.Name, meta.ID) {
			continue
		}
		feed := firstCommon(s.Feeds, meta.Feeds)
		e.sched.Submit(&scheduler.Job{
			FileID:     meta.ID,
			Feed:       feed,
			Subscriber: s.Name,
			Path:       meta.StagedPath,
			Size:       meta.Size,
			Release:    now,
			Deadline:   meta.Arrived.Add(e.opts.Deadline),
			Priority:   e.priorityOf(s) + e.opts.FeedPriority[feed],
		})
	}
}

func (e *Engine) priorityOf(s *config.Subscriber) int {
	if s.Class == "interactive" {
		return 10
	}
	return 1
}

func (e *Engine) interested(s *config.Subscriber, feeds []string) bool {
	for _, want := range s.Feeds {
		for _, have := range feeds {
			if want == have {
				return true
			}
		}
	}
	return false
}

func firstCommon(a, b []string) string {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return x
			}
		}
	}
	return ""
}

// Punctuate propagates a source end-of-batch marker downstream: every
// subscriber of the feed gets its open trigger batch closed.
func (e *Engine) Punctuate(feed string) {
	e.trig.PunctuateFeed(feed)
}

// worker is one partition worker loop. It keeps one read buffer for
// the files it delivers from memory (see execute), and claims each job
// group into the slice of the group before.
func (e *Engine) worker(part int, lane scheduler.Lane) {
	defer e.wg.Done()
	var buf []byte
	var jobs []*scheduler.Job
	for {
		jobs = e.sched.Next(part, lane, jobs[:0]...)
		if jobs == nil {
			return
		}
		buf = e.execute(jobs, buf)
	}
}

// execute performs one claimed job group. Small files are read once
// and fanned out in memory; files at or above the stream threshold are
// streamed from staging or the archive (each transport opens its own
// reader). Channel and transformed jobs always take the in-memory
// path: a channel shares one read across every attached member, and a
// transform rewrites the bytes.
//
// buf is the calling worker's read buffer: a file delivered from
// memory is read into it when it fits, and execute returns the buffer
// to keep for the next group. It keeps none after a file larger than
// streamThreshold, nor after a group in which a transfer of the bytes
// ran past its deadline: backoff.Do leaves that attempt running, still
// reading them. execute may reorder jobs.
func (e *Engine) execute(jobs []*scheduler.Job, buf []byte) []byte {
	meta, ok := e.store.File(jobs[0].FileID)
	if !ok && e.opts.HistoryMeta != nil {
		// Compacted history: the receipt was folded into the archive
		// manifest; an active replay session vouches for the metadata.
		meta, ok = e.opts.HistoryMeta(jobs[0].FileID)
	}
	if !ok || e.store.Quarantined(jobs[0].FileID) {
		// A missing or quarantined receipt would yield zero-value
		// metadata (no checksum, no size) for the whole batch and a
		// silently corrupt transfer. Skip the jobs and account the
		// failure; the receipt database stays the source of truth.
		if m := e.opts.Metrics; m != nil {
			m.ReceiptMissing.Inc()
		}
		for _, j := range jobs {
			e.failJob(j, ErrReceiptMissing)
			e.sched.Done(j)
		}
		return buf
	}
	// GroupSameFile may batch channel jobs with individual jobs for the
	// same file; they take different paths below. Sorted by path, the
	// group splits into the three in place.
	slices.SortStableFunc(jobs, func(a, b *scheduler.Job) int { return e.pathOf(a) - e.pathOf(b) })
	nch, nsub := 0, 0
	for _, j := range jobs {
		switch e.pathOf(j) {
		case viaChannel:
			nch++
		case direct:
			nsub++
		}
	}
	chJobs, subJobs, xformJobs := jobs[:nch], jobs[nch:nch+nsub], jobs[nch+nsub:]
	// Route on the receipt's size, not the job's: a job submitted with
	// a stale (or zero) size must not pull a large file through the
	// in-memory path.
	if meta.Size >= e.streamMin {
		for _, j := range subJobs {
			e.deliverOne(j, nil, meta)
		}
		subJobs = nil
	}
	if len(subJobs) == 0 && len(chJobs) == 0 && len(xformJobs) == 0 {
		return buf
	}
	data, err := e.read(jobs[0].Path, meta.Size, buf)
	if err != nil {
		// Stored file gone from staging and archive, or unreadable:
		// complete the jobs without delivery; receipts keep the truth.
		for _, group := range [...][]*scheduler.Job{subJobs, chJobs, xformJobs} {
			for _, j := range group {
				e.failJob(j, err)
				e.sched.Done(j)
			}
		}
		return buf
	}
	keep := int64(cap(data)) <= e.streamMin
	for _, j := range chJobs {
		if e.channelDeliver(j, data, meta) {
			keep = false
		}
	}
	for _, j := range subJobs {
		if errors.Is(e.deliverOne(j, data, meta), backoff.ErrDeadline) {
			keep = false
		}
	}
	for _, j := range xformJobs {
		if errors.Is(e.deliverTransformed(j, data, meta), backoff.ErrDeadline) {
			keep = false
		}
	}
	if !keep {
		return nil
	}
	return data
}

// The paths a job of a claimed group takes, in execute's order.
const (
	viaChannel = iota
	direct
	// Transformed feeds never stream: the wire bytes are not the staged
	// bytes.
	transformed
)

func (e *Engine) pathOf(j *scheduler.Job) int {
	switch {
	case j.Channel != "":
		return viaChannel
	case e.opts.Transform != nil && e.opts.Transform(j.Feed) != nil:
		return transformed
	}
	return direct
}

// deliverTransformed applies the feed's delivery transform to one
// push and hands the result to deliverOne with the receipt metadata
// rewritten to describe the transformed bytes — the receipt store
// keeps describing the lean staged file; what changed is only this
// subscriber's copy. The transform runs once per push by design:
// that per-fan-out cost is the at-delivery placement's defining
// property (see E20). A transform failure (side table unreadable,
// malformed staged record) completes the job without delivery, like a
// vanished staged file: the non-delivery is visible in receipts and
// the EvDeliveryFailed event, and redelivery tooling can retry after
// the operator repairs the table. It returns deliverOne's error.
func (e *Engine) deliverTransformed(j *scheduler.Job, data []byte, meta receipts.FileMeta) error {
	out, err := e.opts.Transform(j.Feed)(data)
	if err != nil {
		e.failJob(j, fmt.Errorf("delivery transform: %w", err))
		e.sched.Done(j)
		return nil
	}
	meta.Checksum = crc32.ChecksumIEEE(out)
	meta.Size = int64(len(out))
	return e.deliverOne(j, out, meta)
}

// read reads a stored file's content through the opener, into buf
// when it holds size bytes (buf may be nil).
func (e *Engine) read(stagedPath string, size int64, buf []byte) ([]byte, error) {
	rc, err := e.opts.Open(stagedPath)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	return diskfault.ReadSized(rc, size, buf)
}

// deliverOne is the wire half of a delivery: it pushes one file to one
// subscriber, updates liveness bookkeeping and, once the subscriber has
// acked the bytes, hands the receipt to the committer (committer.go)
// and frees the subscriber's slot. It returns the transfer's error.
func (e *Engine) deliverOne(j *scheduler.Job, data []byte, meta receipts.FileMeta) error {
	s := e.subscriber(j.Subscriber)
	if s == nil {
		e.sched.Done(j)
		return nil
	}
	f := transport.File{
		FileID: j.FileID,
		Feed:   j.Feed,
		Name:   destName(s, j.Path),
		Data:   data,
		CRC:    meta.Checksum,
		Size:   meta.Size,
	}
	if data == nil {
		f.Stored = func() (io.ReadCloser, error) { return e.opts.Open(j.Path) }
	}
	st := e.stateFor(j.Subscriber)
	started := e.clk.Now()
	// The per-transfer deadline bounds how long one attempt can hold a
	// worker; a late attempt counts as a transient failure. backoff.Do's
	// attempt may outlive it, so its closure is built only when there
	// is a deadline.
	var err error
	if d := st.pol.TransferDeadline; d > 0 {
		err = backoff.Do(e.clk, d, func() error { return e.push(s.Method, j.Subscriber, f) })
	} else {
		err = e.push(s.Method, j.Subscriber, f)
	}
	if err != nil {
		// transferFailed either requeues the job or drops it; both
		// release its scheduler slot.
		e.transferFailed(j, err)
		return err
	}
	// Acked on the wire: feed the scheduler's responsiveness estimate
	// (drives dynamic partition migration when enabled) and mark the
	// subscriber alive, whatever the receipt store says later. The
	// slot is released without waiting for the commit, so the
	// subscriber's next file goes out at once.
	now := e.clk.Now()
	e.sched.Observe(j.Subscriber, now.Sub(started))
	e.markAlive(j.Subscriber)
	e.queueReceipt(s, j, ackedDelivery{
		fileID:   j.FileID,
		sub:      j.Subscriber,
		feed:     j.Feed,
		name:     f.Name,
		size:     meta.Size,
		arrived:  meta.Arrived,
		dataTime: meta.DataTime,
		at:       now,
		backfill: j.Backfill,
	})
	return nil
}

// push is one attempt at sending f to sub: the file, or for a notify
// subscriber its announcement.
func (e *Engine) push(method config.Method, sub string, f transport.File) error {
	if method == config.MethodNotify {
		f.Data = nil
		return e.trans.Notify(sub, f)
	}
	return e.trans.Deliver(sub, f)
}

// destName computes the destination-relative path for a staged file.
func destName(s *config.Subscriber, stagedPath string) string {
	return filepath.ToSlash(filepath.Join(s.Dest, stagedPath))
}

// failJob accounts one failed attempt at a job — the subscriber's
// failure counter and the EvDeliveryFailed event — for every way a job
// can fail before or on the wire. Releasing or requeueing the job's
// scheduler slot stays with the caller.
func (e *Engine) failJob(j *scheduler.Job, err error) {
	e.bumpStats(j.Subscriber, false, 0)
	e.emit(Event{Kind: EvDeliveryFailed, Subscriber: j.Subscriber, Feed: j.Feed, Name: j.Path, FileID: j.FileID, Err: err})
}

// transferFailed classifies a failure and routes it: permanent errors
// drop the job outright; transient ones feed the circuit breaker and
// either requeue with a backoff delay or — once the breaker opens —
// flag the subscriber offline, drop its queue, and start the prober.
func (e *Engine) transferFailed(j *scheduler.Job, err error) {
	e.failJob(j, err)
	if backoff.Classify(err) == backoff.ClassPermanent {
		// Retrying cannot help and says nothing about liveness; the
		// receipt database keeps the file pending should config change.
		e.sched.Done(j)
		return
	}
	st := e.stateFor(j.Subscriber)
	now := e.clk.Now()
	opened := st.breaker.Failure(now, err)
	if !opened && st.breaker.State() == backoff.Closed {
		// Below the threshold: retry through the queue after a jittered
		// backoff delay (RequeueAfter releases the claimed slot and
		// keeps the job invisible until the delay elapses).
		delay := st.retry.Next()
		if m := e.opts.Metrics; m != nil {
			m.Retries.Inc()
		}
		e.emit(Event{Kind: EvRetryScheduled, Subscriber: j.Subscriber, Feed: j.Feed, Name: j.Path, FileID: j.FileID, Delay: delay, Attempt: st.retry.Attempt(), Err: err})
		e.sched.RequeueAfter(j, now.Add(delay))
		return
	}
	// Breaker open: the job is dropped, not requeued — the receipt
	// database will resurface it as backfill on reconnect.
	e.sched.Done(j)
	e.markOffline(j.Subscriber, err, opened, st)
}

// markAlive resets failure bookkeeping after a success.
func (e *Engine) markAlive(sub string) {
	st := e.stateFor(sub)
	st.breaker.Success()
	st.retry.Reset()
	e.mu.Lock()
	wasOffline := e.offline[sub]
	e.offline[sub] = false
	e.mu.Unlock()
	if wasOffline {
		e.emit(Event{Kind: EvSubscriberOnline, Subscriber: sub})
	}
}

// probe drives an offline subscriber's recovery: it sleeps until the
// breaker's open window elapses, sends the single half-open ping the
// breaker admits, and either closes the circuit (subscriber online,
// backfill queued) or reopens it with an exponentially grown window.
func (e *Engine) probe(sub string) {
	defer e.wg.Done()
	st := e.stateFor(sub)
	for {
		if d := st.breaker.ProbeIn(e.clk.Now()); d > 0 {
			t := e.clk.NewTimer(d)
			select {
			case <-e.stopCh:
				t.Stop()
				return
			case <-t.C():
			}
		}
		select {
		case <-e.stopCh:
			return
		default:
		}
		if !st.breaker.Allow(e.clk.Now()) {
			continue
		}
		e.emit(Event{Kind: EvCircuitHalfOpen, Subscriber: sub})
		err := backoff.Do(e.clk, st.pol.TransferDeadline, func() error {
			return e.trans.Ping(sub)
		})
		if err != nil {
			now := e.clk.Now()
			st.breaker.Failure(now, err)
			e.emit(Event{Kind: EvCircuitOpen, Subscriber: sub, Delay: st.breaker.ProbeIn(now), Err: err})
			continue
		}
		st.breaker.Success()
		st.retry.Reset()
		e.mu.Lock()
		e.offline[sub] = false
		e.probing[sub] = false
		e.mu.Unlock()
		e.emit(Event{Kind: EvSubscriberOnline, Subscriber: sub})
		e.QueueBackfill(sub)
		return
	}
}

// QueueBackfill recomputes a subscriber's delivery queue from the
// receipt database and submits the undelivered history as backfill
// jobs (delivered concurrently with real-time traffic). It returns the
// file ids it queued; a replay session starting at the same moment
// uses that list as its skip set so no file is streamed by both paths.
func (e *Engine) QueueBackfill(sub string) []uint64 {
	s := e.subscriber(sub)
	if s == nil {
		return nil
	}
	// Channel membership resumes through catch-up (cursor → frontier →
	// attach), the single re-attach integration point shared by server
	// start, probe recovery, and runtime registration.
	for _, ch := range e.channelsOf(sub) {
		e.startCatchup(ch, sub)
	}
	// Snapshot first, store second (see unrecordedFor): files the
	// subscriber has acked but whose receipts are still with the
	// committer look undelivered to the store and must not go out again.
	unrecorded := e.unrecordedFor(sub)
	pending := e.store.PendingFor(sub, s.Feeds)
	if len(pending) == 0 {
		return nil
	}
	ids := make([]uint64, 0, len(pending))
	now := e.clk.Now()
	for _, meta := range pending {
		if _, acked := unrecorded[meta.ID]; acked {
			continue
		}
		// Files on channel-covered feeds reach the member via the
		// shared fan-out or its catch-up, never as individual backfill.
		if e.channelCovered(sub, meta.Feeds) {
			continue
		}
		ids = append(ids, meta.ID)
		feed := firstCommon(s.Feeds, meta.Feeds)
		e.sched.Submit(&scheduler.Job{
			FileID:     meta.ID,
			Feed:       feed,
			Subscriber: sub,
			Path:       meta.StagedPath,
			Size:       meta.Size,
			Release:    now,
			Deadline:   now.Add(e.opts.Deadline),
			Priority:   e.priorityOf(s) + e.opts.FeedPriority[feed],
			Backfill:   true,
		})
	}
	if len(ids) == 0 {
		return nil
	}
	e.emit(Event{Kind: EvBackfillQueued, Subscriber: sub, Count: len(ids)})
	return ids
}

// SubscriberStats is a monitoring snapshot for one subscriber.
type SubscriberStats struct {
	// Delivered counts successful transfers (including notifications).
	Delivered int64
	// Bytes is the total payload volume delivered.
	Bytes int64
	// Failures counts failed transfer attempts.
	Failures int64
	// Offline is the engine's current liveness view.
	Offline bool
	// Circuit is the subscriber's breaker state ("closed", "open",
	// "half-open").
	Circuit string
	// Partition is the subscriber's scheduler partition.
	Partition int
}

// Stats returns a snapshot of per-subscriber delivery statistics.
func (e *Engine) Stats() map[string]SubscriberStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]SubscriberStats, len(e.subs))
	for name := range e.subs {
		st := SubscriberStats{Offline: e.offline[name], Circuit: backoff.Closed.String()}
		if s := e.stats[name]; s != nil {
			st.Delivered = s.Delivered
			st.Bytes = s.Bytes
			st.Failures = s.Failures
		}
		if fs := e.states[name]; fs != nil {
			st.Circuit = fs.breaker.State().String()
		}
		st.Partition = e.sched.PartitionOf(name)
		out[name] = st
	}
	return out
}

// bumpStats updates counters under the engine lock, mirroring them
// into the per-subscriber metric series (resolved once per subscriber
// and cached, so steady state is atomic adds only).
func (e *Engine) bumpStats(sub string, delivered bool, bytes int64) {
	e.mu.Lock()
	st := e.stats[sub]
	if st == nil {
		st = &SubscriberStats{}
		e.stats[sub] = st
	}
	sm := e.subMets[sub]
	if sm == nil {
		sm = &subMetrics{}
		if m := e.opts.Metrics; m != nil {
			sm.delivered = m.Delivered.With(sub)
			sm.bytes = m.Bytes.With(sub)
			sm.failures = m.Failures.With(sub)
		}
		e.subMets[sub] = sm
	}
	if delivered {
		st.Delivered++
		st.Bytes += bytes
	} else {
		st.Failures++
	}
	e.mu.Unlock()
	if delivered {
		sm.delivered.Inc()
		sm.bytes.Add(bytes)
	} else {
		sm.failures.Inc()
	}
}

// Offline reports whether the engine currently considers sub offline.
func (e *Engine) Offline(sub string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.offline[sub]
}
