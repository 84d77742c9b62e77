//go:build linux

package benchmark

import (
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bistro/internal/metrics"
	"bistro/internal/scheduler"
)

// taps is the traced run's instrumentation, all of it outside the
// program: the FS wrapper, the pull consumer's per-request clocks, and
// periodic reads of the server's registry and scheduler. enable
// switches the event taps; open/close bracket the accounting window
// the per-file counts are taken over.
type taps struct {
	r *runner

	// Accounting window (the middle half of the saturated phase).
	regOpen, regClose map[string]metrics.Snapshot
	fsOpen, fsClose   [numTrees]TreeStats
	pollOpen, pollEnd pollCounts

	// pacedSpans are the FS spans of the paced phase, kept for the
	// trace; spans recorded later are dropped.
	pacedSpans []fsSpan

	sampling atomic.Bool
	stopCh   chan struct{}
	wg       sync.WaitGroup

	mu             sync.Mutex
	samples        int
	ingestDepthSum float64
	schedDepthSum  float64
	goroutinesPeak int
	gcPause0       time.Duration
}

// pollCounts is a snapshot of the pull consumer's counters.
type pollCounts struct {
	polls, notModified int
	pollBytes          int64
	at                 time.Time
}

func newTaps(r *runner) *taps {
	t := &taps{r: r, stopCh: make(chan struct{}), gcPause0: gcPauseTotal()}
	t.wg.Add(1)
	go t.sample()
	return t
}

// enable switches the event taps (FS wrapper, per-request clocks).
func (t *taps) enable(on bool) {
	t.r.in.cfs.Enable(on)
	if p := t.r.in.poll; p != nil {
		p.tapped.Store(on)
	}
}

// endPaced keeps the paced phase's FS spans for the trace.
func (t *taps) endPaced() { t.pacedSpans = t.r.in.cfs.TakeSpans() }

// open starts the accounting window.
func (t *taps) open() {
	t.enable(true)
	t.regOpen = snapshotRegistry(t.r.in.srv.Metrics())
	t.fsOpen = t.r.in.cfs.Snapshot()
	t.pollOpen = t.pollCounts()
	t.sampling.Store(true)
}

// close ends the accounting window.
func (t *taps) close() {
	t.sampling.Store(false)
	t.regClose = snapshotRegistry(t.r.in.srv.Metrics())
	t.fsClose = t.r.in.cfs.Snapshot()
	t.pollEnd = t.pollCounts()
	t.enable(false)
}

// stop ends the sampler.
func (t *taps) stop() {
	close(t.stopCh)
	t.wg.Wait()
}

func (t *taps) pollCounts() pollCounts {
	pc := pollCounts{at: time.Now()}
	if p := t.r.in.poll; p != nil {
		p.mu.Lock()
		pc.polls, pc.notModified, pc.pollBytes = p.polls, p.notModified, p.pollBytes
		p.mu.Unlock()
	}
	return pc
}

// sample reads the queue depths every 10 ms while the accounting
// window is open, and the goroutine count throughout.
func (t *taps) sample() {
	defer t.wg.Done()
	srv := t.r.in.srv
	depth := srv.Metrics().Gauge("bistro_ingest_queue_depth", "")
	sched := srv.Engine().Scheduler()
	parts := len(sched.Partitions())
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-t.stopCh:
			return
		case <-tick.C:
		}
		g := runtime.NumGoroutine()
		t.mu.Lock()
		t.goroutinesPeak = max(t.goroutinesPeak, g)
		if t.sampling.Load() {
			queued := 0
			for p := 0; p < parts; p++ {
				queued += sched.QueueLen(p, scheduler.LaneRealtime) + sched.QueueLen(p, scheduler.LaneBackfill)
			}
			t.samples++
			t.ingestDepthSum += float64(depth.Value())
			t.schedDepthSum += float64(queued)
		}
		t.mu.Unlock()
	}
}

// snapshotRegistry flattens a registry into name{labels} → series.
func snapshotRegistry(reg *metrics.Registry) map[string]metrics.Snapshot {
	out := make(map[string]metrics.Snapshot)
	for _, s := range reg.Gather() {
		out[seriesKey(s.Name, s.Labels)] = s
	}
	return out
}

func seriesKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	for _, k := range keys {
		b.WriteString("|" + k + "=" + labels[k])
	}
	return b.String()
}

// regDelta sums, over every series of family name whose labels include
// want, the change in value and in observation count between two
// snapshots.
func regDelta(open, end map[string]metrics.Snapshot, name string, want map[string]string) (value float64, count int64) {
	for key, e := range end {
		if e.Name != name {
			continue
		}
		match := true
		for k, v := range want {
			if e.Labels[k] != v {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		o := open[key]
		value += e.Value - o.Value
		count += e.Count - o.Count
	}
	return value, count
}
