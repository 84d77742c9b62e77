package experiments

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"bistro/internal/classifier"
	"bistro/internal/clock"
	"bistro/internal/config"
	"bistro/internal/delivery"
	"bistro/internal/metrics"
	"bistro/internal/receipts"
	"bistro/internal/transport"
)

// E13Overhead measures what the observability layer costs the two
// instrumented hot paths: classifier matching (counters flushed once
// per Classify) and end-to-end delivery (cached per-subscriber
// counters plus one histogram observation per file). The design
// budget is <5% — everything derivable from an existing snapshot API
// (queue depths, breaker states, per-feed totals) is refreshed at
// scrape time instead of on these paths, so the residue measured here
// is a handful of atomic adds.
func E13Overhead(o Options) (Table, error) {
	clFeeds, clNames, chunks, files := 300, 50000, 600, 150
	if o.Quick {
		clFeeds, clNames, chunks, files = 100, 10000, 300, 60
	}

	t := Table{
		ID:     "E13",
		Title:  "metrics instrumentation overhead on the hot paths",
		Claim:  "continuous monitoring must not tax the data path (§3.2 logs everything; the observability layer keeps hot-path cost to atomic counter updates)",
		Header: []string{"path", "bare", "instrumented", "overhead"},
	}

	bare, instr, err := E13ClassifierTrial(clFeeds, clNames, chunks)
	if err != nil {
		return t, err
	}
	perBare := float64(bare.Nanoseconds()) / e13Chunk
	perInstr := float64(instr.Nanoseconds()) / e13Chunk
	t.Rows = append(t.Rows, []string{
		"classifier Classify",
		fmt.Sprintf("%.0fns/file", perBare),
		fmt.Sprintf("%.0fns/file", perInstr),
		fmt.Sprintf("%+.1f%%", (perInstr/perBare-1)*100),
	})

	dBare, dInstr, err := E13DeliveryTrial(files)
	if err != nil {
		return t, err
	}
	perBareD := float64(dBare.Nanoseconds()) / 1e3
	perInstrD := float64(dInstr.Nanoseconds()) / 1e3
	t.Rows = append(t.Rows, []string{
		"delivery enqueue->delivered",
		fmt.Sprintf("%.1fus/file", perBareD),
		fmt.Sprintf("%.1fus/file", perInstrD),
		fmt.Sprintf("%+.1f%%", (perInstrD/perBareD-1)*100),
	})

	t.Notes = append(t.Notes,
		fmt.Sprintf("min-of-N: each path timed in short runs (%d names, or one file), bare and instrumented in alternation, fastest run of each side; snapshot-derived gauges are refreshed at /metrics scrape time and cost these paths nothing", e13Chunk),
		"budget: <5% regression on both paths (asserted by TestE13OverheadBudget); instrumentation allocates nothing and makes exactly its metric updates (TestE13InstrumentationCounts)")
	return t, nil
}

// e13Chunk is how many names one classifier run times: at ≈ 0.1 ms,
// short enough that many runs finish undisturbed on a shared host.
const e13Chunk = 200

// e13MinPair runs bare(i) and instr(i) in alternation for i < n and
// returns each side's fastest time. A shared host only ever adds time
// to a run, so the fastest of many short runs is the steadiest
// estimate of what the code itself costs.
func e13MinPair(n int, bare, instr func(i int) (time.Duration, error)) (time.Duration, time.Duration, error) {
	minBare, minInstr := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for i := 0; i < n; i++ {
		b, err := bare(i)
		if err != nil {
			return 0, 0, err
		}
		in, err := instr(i)
		if err != nil {
			return 0, 0, err
		}
		minBare, minInstr = min(minBare, b), min(minInstr, in)
	}
	return minBare, minInstr, nil
}

// E13ClassifierTrial times chunks runs of e13Chunk classifications
// against clFeeds feed definitions (clNames names in all, a multiple
// of e13Chunk), bare and instrumented in alternation, and returns each
// side's fastest run.
func E13ClassifierTrial(clFeeds, clNames, chunks int) (bare, instr time.Duration, err error) {
	cBare, names, _ := e13Classifier(clFeeds, clNames, false)
	cInstr, _, _ := e13Classifier(clFeeds, clNames, true)
	run := func(c *classifier.Classifier) func(int) (time.Duration, error) {
		return func(i int) (time.Duration, error) {
			lo := i * e13Chunk % len(names)
			start := time.Now()
			matched := 0
			for _, n := range names[lo : lo+e13Chunk] {
				if len(c.Classify(n)) > 0 {
					matched++
				}
			}
			elapsed := time.Since(start)
			if matched != e13Chunk-e13Chunk/10 {
				return 0, fmt.Errorf("e13: matched %d of %d", matched, e13Chunk)
			}
			return elapsed, nil
		}
	}
	// Warm caches on a pass over the workload before timing.
	for _, n := range names {
		cBare.Classify(n)
		cInstr.Classify(n)
	}
	return e13MinPair(chunks, run(cBare), run(cInstr))
}

// e13Classifier builds the classifier workload of classifierWorkload;
// its metrics are nil when instrument is false.
func e13Classifier(clFeeds, clNames int, instrument bool) (*classifier.Classifier, []string, *classifier.Metrics) {
	feeds, names := classifierWorkload(clFeeds, clNames)
	opts := classifier.Options{}
	if instrument {
		opts.Metrics = classifier.NewMetrics(metrics.NewRegistry())
	}
	return classifier.New(feeds, opts), names, opts.Metrics
}

// E13DeliveryTrial times n enqueue→delivered round trips of one file
// through a real engine over the local-directory transport, bare and
// instrumented in alternation, and returns each side's fastest. Files
// are staged and receipted before the clock starts, so the measured
// span is the delivery path itself: scheduling, transfer, receipt
// commit, and (when on) the counter and histogram updates.
func E13DeliveryTrial(n int) (bare, instr time.Duration, err error) {
	var runs [2]func(int) (time.Duration, error)
	for side, on := range []bool{false, true} {
		d, err := newE13Delivery(on)
		if err != nil {
			return 0, 0, err
		}
		defer d.close()
		metas, err := d.stage(n + 1)
		if err == nil {
			err = d.deliver(metas[:1]) // warm up
		}
		if err != nil {
			return 0, 0, err
		}
		runs[side] = func(i int) (time.Duration, error) {
			start := time.Now()
			err := d.deliver(metas[i+1 : i+2])
			return time.Since(start), err
		}
	}
	return e13MinPair(n, runs[0], runs[1])
}

// e13Payload is the content of every file the delivery trial moves.
var e13Payload = []byte("a,b,c\n1,2,3\n")

// e13Delivery is a started engine with one local-directory subscriber
// over a receipt store that does not sync; metrics is nil when bare.
type e13Delivery struct {
	*stagedStore
	engine  *delivery.Engine
	metrics *delivery.Metrics
	staged  int
	// delivered counts EvDelivered; done receives once it reaches want.
	delivered, want atomic.Int64
	done            chan struct{}
}

func newE13Delivery(instrument bool) (*e13Delivery, error) {
	st, err := newStagedStore("e13")
	if err != nil {
		return nil, err
	}
	d := &e13Delivery{stagedStore: st, done: make(chan struct{}, 1)}
	lt := transport.NewLocalDir()
	lt.Register("wh", st.root)
	var read *metrics.Counter
	if instrument {
		d.metrics = delivery.NewMetrics(metrics.NewRegistry())
		read = d.metrics.StagingReadBytes
	}
	d.engine, err = delivery.New(delivery.Options{
		Clock:       clock.NewReal(),
		Store:       d.store,
		Transport:   lt,
		Subscribers: []*config.Subscriber{{Name: "wh", Dest: "in", Feeds: []string{"F"}, Retry: time.Second}},
		Open:        d.opener(read),
		Metrics:     d.metrics,
		OnEvent: func(ev delivery.Event) {
			if ev.Kind == delivery.EvDelivered && d.delivered.Add(1) == d.want.Load() {
				d.done <- struct{}{}
			}
		},
	})
	if err != nil {
		d.close()
		return nil, err
	}
	d.engine.Start()
	return d, nil
}

// stage writes and receipts n more files.
func (d *e13Delivery) stage(n int) ([]receipts.FileMeta, error) {
	metas := make([]receipts.FileMeta, n)
	for i := range metas {
		meta, err := d.stagedStore.stage(fmt.Sprintf("F/e13-%04d.csv", d.staged), "F", e13Payload, time.Now())
		if err != nil {
			return nil, err
		}
		d.staged++
		metas[i] = meta
	}
	return metas, nil
}

// deliver enqueues metas and waits until every one is delivered.
func (d *e13Delivery) deliver(metas []receipts.FileMeta) error {
	d.want.Store(d.delivered.Load() + int64(len(metas)))
	for _, meta := range metas {
		d.engine.EnqueueFile(meta)
	}
	select {
	case <-d.done:
		return nil
	case <-time.After(30 * time.Second):
		return fmt.Errorf("e13: %d of %d delivered before timeout", d.delivered.Load(), d.want.Load())
	}
}

func (d *e13Delivery) close() {
	if d.engine != nil {
		d.engine.Stop()
	}
	d.stagedStore.close()
}
