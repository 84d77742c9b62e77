//go:build linux

package benchmark

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// Config parameterizes one benchmark run (one process, one workload).
type Config struct {
	Workload string
	Seed     int64
	// Seconds is the measured time: a third in the paced (open-loop)
	// phase, which the latency metrics come from, two thirds in the
	// saturated (closed-loop) phase, which throughput and allocation
	// come from.
	Seconds float64
	// Trace turns the taps on (FS wrapper, delivery events, sampling,
	// layer walk) and reports the per-layer metrics instead of the
	// end-to-end ones.
	Trace bool
	// Dir is the parent of the run's work directory.
	Dir string
	// TraceOut is where the traced run writes its spans
	// ("" = <Dir>/trace-<workload>-<seed>.json).
	TraceOut string
	// PprofDir, when set, receives CPU and allocation profiles taken
	// over the saturated phase.
	PprofDir string
	// allowMemFS lets the harness tests run on a tmpfs temp dir.
	allowMemFS bool
	// Setups is how many times the system is set up (the median is
	// reported as setup_s; the last instance carries the load).
	Setups int
	// Scale divides warm-up and history sizes (harness tests use 10).
	Scale int
	// Log receives progress lines (nil = discard).
	Log io.Writer
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is one run's full outcome. The benchmark contract's last
// stdout line is the {correct, attempted, failed, metrics} subset.
type Result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Env       Env               `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	// Info carries what is printed beside the metrics: sample counts,
	// phase lengths, oracle violations.
	Info map[string]any `json:"info"`
}

// drainTimeout bounds every wait for outstanding deliveries — for room
// in a full credit window while the load runs, for the backlog after it
// stops. The paper's one-minute bound is judged per file by the oracle;
// this only keeps a wedged run inside its time limit, so that the
// oracle gets to report what was lost.
const drainTimeout = 40 * time.Second

// runner carries the load phases of one instance.
type runner struct {
	cfg  Config
	w    Workload
	gen  *Generator
	in   *instance
	led  *ledger
	next atomic.Int64 // next unassigned index of the seeded sequence
	// credits[c] holds one token per undelivered closed-loop file of
	// connection c.
	credits []chan struct{}
	taps    *taps // traced runs only
}

func (cfg *Config) logf(format string, args ...any) {
	if cfg.Log != nil {
		fmt.Fprintf(cfg.Log, format+"\n", args...)
	}
}

// Run executes one run: environment probe, set-up rounds, paced phase,
// saturated phase, drain, oracle, and (traced) the layer walk.
func Run(cfg Config) (*Result, error) {
	w, ok := WorkloadByName(cfg.Workload)
	if !ok {
		return nil, fmt.Errorf("benchmark: unknown workload %q", cfg.Workload)
	}
	if cfg.Seconds <= 0 {
		return nil, fmt.Errorf("benchmark: seconds must be positive")
	}
	if cfg.Setups <= 0 {
		cfg.Setups = 3
	}
	if cfg.Scale > 1 {
		w.Warmup = max(w.Warmup/cfg.Scale, 4)
		w.History /= cfg.Scale
		w.Expired /= cfg.Scale
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.Dir, w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer func() {
		os.RemoveAll(work)
		settle()
	}()
	settle()
	env, err := probeEnv(work, cfg.allowMemFS)
	if err != nil {
		return nil, err
	}
	gen, err := NewGenerator(w.Name, cfg.Seed)
	if err != nil {
		return nil, err
	}

	res := &Result{Workload: w.Name, Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace,
		Env: env, Metrics: make(map[string]Metric), Info: make(map[string]any)}

	// Set-up rounds. Each boots a fresh root and pushes the warm-up
	// through to the consumer; all but the last are torn down again.
	var setups []float64
	var r *runner
	for round := 0; round < cfg.Setups; round++ {
		start := time.Now()
		rr, err := setUp(cfg, w, gen, filepath.Join(work, fmt.Sprintf("root%d", round)))
		if err != nil {
			return nil, fmt.Errorf("set-up round %d: %w", round, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		cfg.logf("set-up %d: %.3fs", round, setups[round])
		if round < cfg.Setups-1 {
			rr.in.stop()
			os.RemoveAll(rr.in.root)
			settle()
			continue
		}
		r = rr
	}
	defer r.in.stop()
	res.Info["setup_rounds_s"] = setups

	paced := time.Duration(cfg.Seconds / 3 * float64(time.Second))
	saturated := time.Duration(cfg.Seconds * 2 / 3 * float64(time.Second))
	runStart := time.Now()
	if cfg.Trace {
		r.taps = newTaps(r)
		r.taps.enable(true)
	}
	pacedWin := r.paced(paced)
	if r.taps != nil {
		r.taps.endPaced()
	}
	cfg.logf("paced: %.0f files/s for %.1fs, backlog at end %d", w.PacedRate, paced.Seconds(), pacedWin.backlogEnd)
	satWin, err := r.saturated(saturated)
	if err != nil {
		return nil, err
	}
	cfg.logf("saturated: %.2fs, backlog at end %d", satWin.length.Seconds(), satWin.backlogEnd)
	drained := r.drain()
	if r.taps != nil {
		r.taps.stop()
	}

	recs := r.led.snapshot()
	orc := r.oracle(recs, drained)
	res.Correct, res.Attempted, res.Failed = orc.correct(), orc.attempted, orc.failed
	res.Info["violations"] = orc.violations
	res.Info["oracle"] = orc.counts
	res.Info["phases_s"] = map[string]float64{"paced": paced.Seconds(), "saturated": saturated.Seconds()}

	e2e := endToEnd(recs, &pacedWin, &satWin, median(setups))
	for k, v := range e2e.info {
		res.Info[k] = v
	}
	if cfg.Trace {
		if r.in.poll != nil {
			r.in.poll.stop() // the layer walk needs a quiet process
		}
		layers, spans, err := r.perLayer(recs, pacedWin, satWin, e2e, orc, runStart)
		if err != nil {
			return nil, err
		}
		out := cfg.TraceOut
		if out == "" {
			out = filepath.Join(cfg.Dir, fmt.Sprintf("trace-%s-%d.json", w.Name, cfg.Seed))
		}
		if err := writeTrace(out, spans); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		res.Info["trace_file"] = out
		res.Info["spans"] = len(spans)
		res.Info["stage_self_ms"] = stageTable(spans)
		setMetrics(res.Metrics, PerLayer, layers)
	} else {
		// Peak RSS is read last: one process per run, so the high-water
		// mark covers set-up and both phases.
		e2e.values["peak_rss_mb"] = peakRSSMiB()
		setMetrics(res.Metrics, EndToEnd, e2e.values)
	}
	return res, nil
}

// setMetrics copies the defined metrics out of values, attaching units.
func setMetrics(dst map[string]Metric, defs []MetricDef, values map[string]float64) {
	for _, d := range defs {
		dst[d.Name] = Metric{Value: values[d.Name], Unit: d.Unit}
	}
}

// setUp boots one instance under root and warms it up: a fixed number
// of files, closed loop, through to the consumer.
func setUp(cfg Config, w Workload, gen *Generator, root string) (*runner, error) {
	led := newLedger(w.Outputs)
	r := &runner{cfg: cfg, w: w, gen: gen, led: led}
	r.credits = make([]chan struct{}, w.Sources)
	for c := range r.credits {
		r.credits[c] = make(chan struct{}, creditWindow)
	}
	led.onComplete = func(rec *fileRec) {
		if rec.credit {
			<-r.credits[rec.conn]
		}
	}
	in, err := boot(w, root, led, cfg.Trace)
	if err != nil {
		return nil, err
	}
	r.in = in
	left := atomic.Int64{}
	left.Store(int64(w.Warmup))
	r.closedLoop(phaseWarmup, func() bool { return left.Add(-1) >= 0 })
	if !r.drain() {
		in.stop()
		return nil, fmt.Errorf("warm-up did not drain: %d of %d files undelivered", r.led.pending(), w.Warmup)
	}
	return r, nil
}

// closedLoop runs every source connection closed-loop — the next file
// goes out when the previous one is acked and the connection's credit
// window has room — until more() says stop, or until a full window has
// not moved for drainTimeout: deliveries have stopped then, and the
// phase ends so that drain and the oracle can say so.
func (r *runner) closedLoop(ph phase, more func() bool) {
	var wg sync.WaitGroup
	for c := range r.in.conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				if !takeCredit(r.credits[c], drainTimeout) {
					return
				}
				if !more() {
					<-r.credits[c]
					return
				}
				k := int(r.next.Add(1) - 1)
				r.upload(k, ph, c, time.Time{}, true)
			}
		}(c)
	}
	wg.Wait()
}

// takeCredit puts one token into a credit window, waiting up to
// timeout for room.
func takeCredit(window chan struct{}, timeout time.Duration) bool {
	select {
	case window <- struct{}{}:
		return true
	default:
	}
	full := time.NewTimer(timeout)
	defer full.Stop()
	select {
	case window <- struct{}{}:
		return true
	case <-full.C:
		return false
	}
}

// upload deposits file k over connection c and books the outcome.
func (r *runner) upload(k int, ph phase, c int, due time.Time, credit bool) {
	f := r.gen.File(k)
	rec := r.led.register(k, f, ph, c, due, credit)
	started := time.Now()
	err := r.in.conns[c].Upload(f.Name, f.Data)
	r.led.uploaded(rec, started, time.Now(), err)
	if err != nil && credit {
		<-r.credits[c] // a refused deposit will never be delivered
	}
}

// window is one measured interval and what the harness counted in it.
type window struct {
	start, end time.Time
	length     time.Duration
	files      int     // deposits fully received-and-verified inside it
	bytes      int64   // their payload bytes
	acked      int     // deposits acked inside it
	ackedBytes int64   // their payload bytes
	cpu        float64 // process CPU seconds, user + system
	allocObjs  uint64
	allocBytes uint64
	backlogEnd int // acked-but-undelivered deposits when it closed
	// tapped is the traced run's accounting sub-window (see saturated).
	tappedStart, tappedEnd time.Time
}

// count fills the window's delivery counts from the ledger records.
func (w *window) count(recs []fileRec) {
	w.files, w.bytes, w.acked, w.ackedBytes = 0, 0, 0, 0
	for i := range recs {
		rec := &recs[i]
		if !rec.received.IsZero() && !rec.received.Before(w.start) && rec.received.Before(w.end) {
			w.files++
			w.bytes += int64(rec.size)
		}
		if !rec.acked.IsZero() && !rec.acked.Before(w.start) && rec.acked.Before(w.end) {
			w.acked++
			w.ackedBytes += int64(rec.size)
		}
	}
}

// paced runs the open-loop phase: files are due on a fixed schedule at
// the workload's frozen rate, and whichever source connection is free
// sends the next one — a busy connection delays what is due behind it,
// and that wait counts, because every latency is taken from the due
// time. File i is due at a seeded point inside the i-th interval, not
// at its start: a perfectly periodic schedule locks phase with the
// system's own periodic parts (the 2 ms flush window, the pull
// consumer's poll loop), and the median latency then depends on which
// phase a run happens to fall into.
func (r *runner) paced(d time.Duration) window {
	n := int(d.Seconds() * r.w.PacedRate)
	base := int(r.next.Add(int64(n))) - n
	interval := time.Duration(float64(time.Second) / r.w.PacedRate)
	win := window{start: time.Now()}
	var turn atomic.Int64
	var wg sync.WaitGroup
	for c := range r.in.conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(turn.Add(1) - 1)
				if i >= n {
					return
				}
				// A file due while this connection was still busy is ready
				// only now; the generator's own lateness counts from there.
				due := win.start.Add(time.Duration((float64(i) + r.gen.unit(base+i)) * float64(interval)))
				ready := due
				if now := time.Now(); now.After(due) {
					ready = now
				}
				time.Sleep(time.Until(due))
				r.upload(base+i, phasePaced, c, due, false)
				r.led.readyAt(base+i, ready)
			}
		}(c)
	}
	wg.Wait()
	if rest := time.Until(win.start.Add(d)); rest > 0 {
		time.Sleep(rest)
	}
	win.end = time.Now()
	win.length = win.end.Sub(win.start)
	win.backlogEnd = r.led.pending()
	return win
}

// saturated runs the closed-loop phase and measures CPU and allocation
// over it. In a traced run the taps are off for the first and last
// quarter and on for the middle half: the two outer quarters give the
// untraced throughput the tracing overhead is judged against (their
// average cancels a linear drift), the middle half gives the per-layer
// counts.
func (r *runner) saturated(d time.Duration) (window, error) {
	win := window{start: time.Now()}
	deadline := win.start.Add(d)
	if r.taps != nil {
		r.taps.enable(false)
		win.tappedStart, win.tappedEnd = win.start.Add(d/4), win.start.Add(3*d/4)
		tapsDone := make(chan struct{})
		defer func() { <-tapsDone }()
		go func() {
			defer close(tapsDone)
			time.Sleep(time.Until(win.tappedStart))
			r.taps.open()
			time.Sleep(time.Until(win.tappedEnd))
			r.taps.close()
		}()
	}
	var cpuProf *os.File
	if r.cfg.PprofDir != "" {
		if err := os.MkdirAll(r.cfg.PprofDir, 0o755); err != nil {
			return win, err
		}
		f, err := os.Create(filepath.Join(r.cfg.PprofDir, r.w.Name+".cpu.pprof"))
		if err != nil {
			return win, err
		}
		cpuProf = f
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return win, err
		}
	}
	cpu0 := cpuSeconds()
	objs0, bytes0 := allocCounters()
	r.closedLoop(phaseSaturated, func() bool { return time.Now().Before(deadline) })
	win.end = time.Now()
	win.length = win.end.Sub(win.start)
	win.cpu = cpuSeconds() - cpu0
	objs1, bytes1 := allocCounters()
	win.allocObjs, win.allocBytes = objs1-objs0, bytes1-bytes0
	win.backlogEnd = r.led.pending()
	if cpuProf != nil {
		pprof.StopCPUProfile()
		if err := cpuProf.Close(); err != nil {
			return win, err
		}
		f, err := os.Create(filepath.Join(r.cfg.PprofDir, r.w.Name+".allocs.pprof"))
		if err != nil {
			return win, err
		}
		runtime.GC() // the allocs profile is complete as of the last GC
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return win, err
		}
		if err := f.Close(); err != nil {
			return win, err
		}
	}
	return win, nil
}

// drain waits until every acked deposit is in the consumer's hands.
func (r *runner) drain() bool {
	deadline := time.Now().Add(drainTimeout)
	for r.led.pending() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}
