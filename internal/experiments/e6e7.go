package experiments

import (
	"fmt"
	"sync"
	"time"

	"bistro/internal/batch"
	"bistro/internal/classifier"
	"bistro/internal/clock"
	"bistro/internal/config"
	"bistro/internal/pattern"
)

// E6Batching reproduces the §2.3/§4.1 trigger discussion: count-based
// batches break when the poller fleet changes size, time-based batches
// add latency, the hybrid count+timeout form works well in practice,
// and source punctuation is exact. The workload runs a 5-minute poller
// fleet that grows from 3 to 5 pollers and then shrinks to 2 — the
// paper's "number of pollers goes up or down during the lifetime of
// the feed" scenario.
func E6Batching(o Options) (Table, error) {
	phases := []struct {
		pollers   int
		intervals int
	}{{3, 4}, {5, 4}, {2, 4}}
	if o.Quick {
		for i := range phases {
			phases[i].intervals = 2
		}
	}
	period := 5 * time.Minute

	t := Table{
		ID:     "E6",
		Title:  "batch trigger policies on a changing poller fleet",
		Claim:  "fixed-count batching is not robust to fleet changes; time-based adds delay; count+time hybrid works well in practice; punctuation is exact (§2.3, §4.1)",
		Header: []string{"policy", "batches", "broken_batches", "mean_close_delay", "max_close_delay"},
	}

	type policy struct {
		name        string
		make        func(clk clock.Clock, emit func(batch.Batch)) e6Detector
		punctuation bool
	}
	fixed := func(spec batch.Spec) func(clock.Clock, func(batch.Batch)) e6Detector {
		return func(clk clock.Clock, emit func(batch.Batch)) e6Detector {
			return batch.NewDetector(spec, clk, emit)
		}
	}
	policies := []policy{
		{"count=3", fixed(batch.Spec{Count: 3}), false},
		{"time=3m", fixed(batch.Spec{Timeout: 3 * time.Minute}), false},
		{"hybrid count=3,time=3m", fixed(batch.Spec{Count: 3, Timeout: 3 * time.Minute}), false},
		{"adaptive (learned)", func(clk clock.Clock, emit func(batch.Batch)) e6Detector {
			return batch.NewAdaptiveDetector(batch.AdaptiveSpec{
				MinGap: 30 * time.Second, MaxWait: 3 * time.Minute,
			}, clk, emit)
		}, false},
		{"punctuation", fixed(batch.Spec{Count: 1 << 30, Timeout: 24 * time.Hour}), true},
	}

	for _, p := range policies {
		row, err := runE6(p.name, p.make, p.punctuation, phases, period)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"count=3 matches the initial fleet only: batches stall and mix intervals once the fleet grows to 5 or shrinks to 2",
		"hybrid closes immediately when the expected count arrives and bounds the wait when it never does — no broken batches, low delay",
		"adaptive (the paper's §4.1 future-work extension) learns the fleet size and arrival gaps online: no configuration, no broken batches",
		"broken_batches counts batches mixing files from different measurement intervals",
		"close_delay measures batch close relative to the interval's last file arrival; punctuation closes exactly, hybrid bounds the worst case")
	return t, nil
}

// e6Detector is the behaviour shared by the fixed and adaptive
// detectors.
type e6Detector interface {
	Add(batch.File)
	Punctuate()
	Flush()
}

func runE6(name string, mk func(clock.Clock, func(batch.Batch)) e6Detector, punctuate bool, phases []struct{ pollers, intervals int }, period time.Duration) ([]string, error) {
	start := time.Date(2010, 9, 25, 0, 0, 0, 0, time.UTC)
	clk := clock.NewSimulated(start)
	var mu sync.Mutex
	var batches []batch.Batch
	det := mk(clk, func(b batch.Batch) {
		mu.Lock()
		batches = append(batches, b)
		mu.Unlock()
	})

	interval := start
	for _, ph := range phases {
		for iv := 0; iv < ph.intervals; iv++ {
			// Files for this interval arrive shortly after it closes.
			arriveBase := interval.Add(period)
			clk.AdvanceTo(arriveBase)
			for src := 1; src <= ph.pollers; src++ {
				at := arriveBase.Add(time.Duration(src) * time.Second)
				clk.AdvanceTo(at)
				det.Add(batch.File{
					Name:     fmt.Sprintf("MEM_POLLER%d_%s.csv", src, interval.Format("200601021504")),
					DataTime: interval,
					Arrived:  at,
				})
			}
			if punctuate {
				det.Punctuate()
			}
			// Let any timeout timers armed in this interval fire as the
			// clock advances toward the next one.
			for step := 0; step < 10; step++ {
				clk.Advance(period / 10)
				time.Sleep(time.Millisecond)
			}
			interval = interval.Add(period)
		}
	}
	det.Flush()
	time.Sleep(5 * time.Millisecond)

	mu.Lock()
	defer mu.Unlock()
	broken := 0
	var delays []time.Duration
	for _, b := range batches {
		seen := map[time.Time]bool{}
		var lastArrival time.Time
		for _, f := range b.Files {
			seen[f.DataTime] = true
			if f.Arrived.After(lastArrival) {
				lastArrival = f.Arrived
			}
		}
		if len(seen) > 1 {
			broken++
		}
		delays = append(delays, max(b.Closed.Sub(lastArrival), 0))
	}
	return []string{
		name,
		fmt.Sprintf("%d", len(batches)),
		fmt.Sprintf("%d", broken),
		secs(meanDuration(delays)),
		secs(maxDuration(delays)),
	}, nil
}

// classifierWorkload builds nFeeds one-pattern feeds and nNames file
// names for them: a realistic mix, most files matching some feed and
// every tenth matching none.
func classifierWorkload(nFeeds, nNames int) ([]*config.Feed, []string) {
	feeds := make([]*config.Feed, nFeeds)
	for i := range feeds {
		feeds[i] = &config.Feed{
			Name: fmt.Sprintf("F%04d", i),
			Path: fmt.Sprintf("F%04d", i),
			Patterns: []*pattern.Pattern{
				pattern.MustCompile(fmt.Sprintf("FEED%04d_poller%%i_%%Y%%m%%d%%H.csv.gz", i)),
			},
		}
	}
	names := make([]string, nNames)
	for i := range names {
		if i%10 == 9 {
			names[i] = fmt.Sprintf("unknown-junk-%d.tmp", i)
		} else {
			names[i] = fmt.Sprintf("FEED%04d_poller%d_2010092504.csv.gz", i%nFeeds, i%7+1)
		}
	}
	return feeds, names
}

// E7Classifier measures the classifier against the paper's deployment
// scale (100+ feeds, real-time classification of every incoming file,
// §3.2), with the literal-prefix index ablation from DESIGN.md.
func E7Classifier(o Options) (Table, error) {
	feedCounts := []int{100, 500, 1000}
	names := 200000
	if o.Quick {
		feedCounts = []int{100, 300}
		names = 20000
	}

	t := Table{
		ID:     "E7",
		Title:  "classifier throughput and prefix-index ablation",
		Claim:  "real-time classification of every incoming file against 100+ feed definitions (§3.2); prefix indexing keeps matching cost flat in the feed count",
		Header: []string{"feeds", "index", "files/sec", "time/file"},
	}

	for _, nf := range feedCounts {
		feeds, testNames := classifierWorkload(nf, names)
		for _, indexed := range []bool{true, false} {
			c := classifier.New(feeds, classifier.Options{DisablePrefixIndex: !indexed})
			startT := time.Now()
			matched := 0
			for _, n := range testNames {
				if len(c.Classify(n)) > 0 {
					matched++
				}
			}
			elapsed := time.Since(startT)
			if matched != names-names/10 {
				return t, fmt.Errorf("e7: matched %d of %d", matched, names)
			}
			rate := float64(names) / elapsed.Seconds()
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", nf),
				fmt.Sprintf("%v", indexed),
				fmt.Sprintf("%.0f", rate),
				fmt.Sprintf("%.2fus", float64(elapsed.Microseconds())/float64(names)),
			})
		}
	}
	t.Notes = append(t.Notes,
		"with the prefix index, per-file cost is near-constant in the number of feeds; linear matching degrades proportionally",
		"at 300GB/day and ~2KB files the deployment classifies ~1.7k files/sec — orders of magnitude below either configuration's capacity")
	return t, nil
}
