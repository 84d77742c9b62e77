// Package ingest implements Bistro's parallel landing→staging
// pipeline (SIGMOD'11 §4.1 at scale). The serial ingest loop — one
// goroutine classifying each arrival, committing its receipt with a
// private fsync, then handing it to delivery — bounds throughput by
// per-file fsync latency and single-core pattern matching. The
// pipeline removes both bounds without giving up ordering or
// durability:
//
//   - arrivals are hash-partitioned by source (the directory portion
//     of their landing-relative path) onto N shard workers, so
//     patterns are matched and receipts committed concurrently while
//     files from the same source stay in arrival order;
//   - concurrent receipt commits coalesce in the WAL's group-commit
//     flush window (one batched append + one fsync per window), and a
//     submitter is not acknowledged until its batch is durable;
//   - classified files flow through a bounded hand-off queue into the
//     delivery engine, so a slow delivery path applies backpressure
//     to sources instead of growing an unbounded backlog.
//
// The pipeline is deliberately mechanism-only: the classify/normalize/
// commit work is the Process callback (the server owns it), and
// delivery hand-off is the Deliver callback.
package ingest

import (
	"errors"
	"fmt"
	"hash/fnv"
	"path"
	"sync"

	"bistro/internal/metrics"
	"bistro/internal/receipts"
)

// ErrStopped is returned by Ingest after Stop has begun.
var ErrStopped = errors.New("ingest: pipeline stopped")

// Metrics holds the pipeline's instrumentation. Nil (or any nil
// field) disables that series at no hot-path cost.
type Metrics struct {
	// Ingested counts files that completed the classify+commit stage.
	Ingested *metrics.Counter
	// Errors counts files whose classify+commit stage failed.
	Errors *metrics.Counter
	// QueueDepth gauges arrivals waiting in (or being processed by)
	// the shard stage right now.
	QueueDepth *metrics.Gauge
	// HandoffDepth gauges classified files waiting in the bounded
	// delivery hand-off queue.
	HandoffDepth *metrics.Gauge
	// HandoffBlocked counts hand-off pushes that found the queue full
	// — each one is a moment delivery backpressure reached a source.
	HandoffBlocked *metrics.Counter
}

// NewMetrics registers the ingest metric families on r using the
// canonical names catalogued in docs/OBSERVABILITY.md.
func NewMetrics(r *metrics.Registry) *Metrics {
	return &Metrics{
		Ingested: r.Counter("bistro_ingest_files_total",
			"Files that completed the classify+commit stage."),
		Errors: r.Counter("bistro_ingest_errors_total",
			"Files whose classify+commit stage failed."),
		QueueDepth: r.Gauge("bistro_ingest_queue_depth",
			"Arrivals queued or in flight in the shard stage."),
		HandoffDepth: r.Gauge("bistro_ingest_handoff_depth",
			"Classified files waiting in the delivery hand-off queue."),
		HandoffBlocked: r.Counter("bistro_ingest_handoff_blocked_total",
			"Hand-off pushes that found the delivery queue full (backpressure)."),
	}
}

// Options configure a Pipeline.
type Options struct {
	// Workers is the shard count (default 1, the serial baseline).
	Workers int
	// ShardDepth bounds each shard's input queue (default 64).
	ShardDepth int
	// HandoffDepth bounds the delivery hand-off queue (default 256).
	HandoffDepth int
	// Process runs the classify→normalize→commit stage for one file
	// under root. It returns the committed receipts that should flow
	// on to delivery — usually one, several when an ingestion plan
	// derived extra files from the arrival, none when the file was
	// quarantined inside Process (unmatched). The metas enter the
	// hand-off queue in slice order, so a derived file never reaches
	// delivery before its parent. Process runs on shard workers and
	// must be safe for concurrent use across distinct shards. Required.
	Process func(root, rel string) (metas []receipts.FileMeta, err error)
	// Deliver receives classified files in hand-off order. It runs on
	// a single goroutine. Required.
	Deliver func(meta receipts.FileMeta)
	// Metrics, when non-nil, receives pipeline instrumentation.
	Metrics *Metrics
}

// job is one arrival waiting for its shard worker.
type job struct {
	root string
	rel  string
	done chan error
}

// Pipeline is a running sharded ingest pipeline. Ingest is safe for
// concurrent use; Stop drains and terminates the workers.
type Pipeline struct {
	opts    Options
	shards  []chan job
	handoff chan receipts.FileMeta

	mu      sync.Mutex
	stopped bool
	wg      sync.WaitGroup // shard workers
	hwg     sync.WaitGroup // hand-off consumer
}

// New builds and starts a pipeline. The workers run until Stop.
func New(opts Options) (*Pipeline, error) {
	if opts.Process == nil || opts.Deliver == nil {
		return nil, fmt.Errorf("ingest: Process and Deliver required")
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.ShardDepth <= 0 {
		opts.ShardDepth = 64
	}
	if opts.HandoffDepth <= 0 {
		opts.HandoffDepth = 256
	}
	p := &Pipeline{
		opts:    opts,
		shards:  make([]chan job, opts.Workers),
		handoff: make(chan receipts.FileMeta, opts.HandoffDepth),
	}
	for i := range p.shards {
		p.shards[i] = make(chan job, opts.ShardDepth)
		p.wg.Add(1)
		go p.worker(p.shards[i])
	}
	p.hwg.Add(1)
	go p.deliverLoop()
	return p, nil
}

// Workers returns the shard count.
func (p *Pipeline) Workers() int { return len(p.shards) }

// SourceKey derives the shard partitioning key for a landing-relative
// path: the directory portion, so every file a source deposits under
// its own directory lands on the same shard (preserving per-source
// order), while different sources spread across shards. Flat deposits
// (no directory) share one key and therefore stay fully ordered.
func SourceKey(rel string) string {
	return path.Dir(path.Clean(rel))
}

// shardFor hashes the source key onto a shard.
func (p *Pipeline) shardFor(rel string) chan job {
	if len(p.shards) == 1 {
		return p.shards[0]
	}
	h := fnv.New32a()
	h.Write([]byte(SourceKey(rel)))
	return p.shards[h.Sum32()%uint32(len(p.shards))]
}

// Ingest routes one arrival through its source's shard and blocks
// until the classify+commit stage completes — the returned nil means
// the receipt is durable (and the file queued for delivery), exactly
// the acknowledgement contract of the serial path.
func (p *Pipeline) Ingest(root, rel string) error {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return ErrStopped
	}
	if m := p.opts.Metrics; m != nil && m.QueueDepth != nil {
		m.QueueDepth.Add(1)
	}
	sh := p.shardFor(rel)
	j := job{root: root, rel: rel, done: donePool.Get().(chan error)}
	// Enqueue under the lock so Stop cannot close the shard channel
	// between the stopped check and the send; a full shard queue
	// blocks the submitter here, which is the intended backpressure.
	// Same-source submitters serialize on this send in call order,
	// which is what makes "per-source order" well defined.
	p.mu.Unlock()
	sh <- j
	err := <-j.done
	donePool.Put(j.done)
	return err
}

// donePool recycles the channels submitters wait on. The worker sends
// on each exactly once and Ingest receives that once before putting it
// back, so a pooled channel is always empty.
var donePool = sync.Pool{New: func() any { return make(chan error, 1) }}

// worker runs one shard: classify+commit in shard order, then push to
// the hand-off queue, then acknowledge the submitter. Acknowledging
// after the hand-off push keeps per-source delivery order aligned
// with receipt order and propagates delivery backpressure.
func (p *Pipeline) worker(ch chan job) {
	defer p.wg.Done()
	m := p.opts.Metrics
	for j := range ch {
		metas, err := p.opts.Process(j.root, j.rel)
		if m != nil {
			if err != nil && m.Errors != nil {
				m.Errors.Inc()
			}
			if err == nil && m.Ingested != nil {
				m.Ingested.Inc()
			}
		}
		if err == nil {
			for _, meta := range metas {
				if m != nil {
					if m.HandoffBlocked != nil && len(p.handoff) == cap(p.handoff) {
						m.HandoffBlocked.Inc()
					}
					if m.HandoffDepth != nil {
						m.HandoffDepth.Add(1)
					}
				}
				p.handoff <- meta
			}
		}
		if m != nil && m.QueueDepth != nil {
			m.QueueDepth.Add(-1)
		}
		j.done <- err
	}
}

// deliverLoop drains the hand-off queue into the delivery engine.
func (p *Pipeline) deliverLoop() {
	defer p.hwg.Done()
	m := p.opts.Metrics
	for meta := range p.handoff {
		if m != nil && m.HandoffDepth != nil {
			m.HandoffDepth.Add(-1)
		}
		p.opts.Deliver(meta)
	}
}

// Stop drains in-flight arrivals and terminates the workers. Callers
// must stop submitting first (Ingest after Stop returns ErrStopped,
// but an Ingest that raced Stop is still drained, not lost).
func (p *Pipeline) Stop() {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return
	}
	p.stopped = true
	p.mu.Unlock()
	for _, ch := range p.shards {
		close(ch)
	}
	p.wg.Wait()
	close(p.handoff)
	p.hwg.Wait()
}
