package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"bistro/internal/metrics"
	"bistro/internal/receipts"
	"bistro/internal/server"
	"bistro/internal/workload"
)

// E10Recovery exercises the §4.2 reliability guarantees end to end:
// the server is killed and restarted mid-stream, a second run delivers
// the remainder, and every file reaches the subscriber exactly once —
// plus a WAL group-commit ablation measuring durable receipt
// throughput.
func E10Recovery(o Options) (Table, error) {
	totalFiles := 300
	if o.Quick {
		totalFiles = 80
	}
	t := Table{
		ID:     "E10",
		Title:  "crash recovery, exactly-once delivery, WAL throughput",
		Claim:  "every file received that matches a feed is delivered to all subscribers despite server restarts and subscriber failures (§4.2)",
		Header: []string{"measure", "value"},
	}

	root, err := tempRoot("e10")
	if err != nil {
		return t, err
	}
	defer os.RemoveAll(root)
	cfgSrc := `
feed BPS { pattern "BPS_POLLER%i_%Y%m%d%H_%M.csv.gz" }
subscriber wh { dest "in" subscribe BPS }
`
	start := time.Date(2010, 9, 25, 0, 0, 0, 0, time.UTC)
	gen := workload.New(41, workload.FeedSpec{
		Name: "BPS", Sources: 3, Period: time.Minute,
		Convention: workload.ConvUnderscoreTS, SizeBytes: 256,
	})
	files := gen.Window(start, start.Add(time.Duration(totalFiles/3)*time.Minute))
	files = files[:min(totalFiles, len(files))]
	totalFiles = len(files)

	runServer := func(deposit []workload.File, waitDelivered int) error {
		srv, err := startServer(cfgSrc, server.Options{Root: root, ScanInterval: -1})
		if err != nil {
			return err
		}
		defer srv.Stop()
		for _, f := range deposit {
			if err := srv.Deposit(f.Name, workload.Payload(f)); err != nil {
				return err
			}
		}
		if !waitFor(60*time.Second, func() bool { return srv.Store().DeliveredCount("wh") >= waitDelivered }) {
			return fmt.Errorf("e10: delivered %d, want %d", srv.Store().DeliveredCount("wh"), waitDelivered)
		}
		return nil
	}

	half := totalFiles / 2
	if err := runServer(files[:half], half); err != nil {
		return t, err
	}
	// "Crash": the first instance stopped; the second starts over the
	// same root, receives the rest, and must not redeliver the past.
	if err := runServer(files[half:], totalFiles); err != nil {
		return t, err
	}

	// Count delivered files on disk: exactly one per generated file.
	delivered, _ := dirStats(filepath.Join(root, "in"))
	t.Rows = append(t.Rows,
		[]string{"files generated", fmt.Sprintf("%d", totalFiles)},
		[]string{"files on subscriber disk after restart", fmt.Sprintf("%d", delivered)},
		[]string{"duplicates", fmt.Sprintf("%d", delivered-totalFiles)},
	)
	if delivered != totalFiles {
		return t, fmt.Errorf("e10: delivered %d files, want exactly %d", delivered, totalFiles)
	}

	// WAL throughput ablation: group commit vs one fsync per commit.
	// The fsync counts are the gated shape; the rates, best of three
	// runs taken in alternation, show what the saved fsyncs are worth on
	// this disk. Group commit's window closes when all eight writers
	// have queued (or after a second, which lockstep rounds never wait
	// for).
	perWriter := 200
	if o.Quick {
		perWriter = 50
	}
	t.Rows = append(t.Rows, []string{"wal commits per run (8 writers)", fmt.Sprintf("%d", walWriters*perWriter)})
	modes := []struct {
		name string
		opts receipts.Options
	}{
		{"group commit, 8 writers", receipts.Options{GroupCommit: receipts.GroupCommitConfig{MaxBatch: walWriters, MaxDelay: time.Second}}},
		{"fsync per commit, 8 writers", receipts.Options{NoGroupCommit: true}},
	}
	best := make([]float64, len(modes))
	fsyncs := make([]int64, len(modes))
	for run := 0; run < 3; run++ {
		for i, mode := range modes {
			rate, n, err := walThroughput(mode.opts, perWriter)
			if err != nil {
				return t, err
			}
			best[i], fsyncs[i] = max(best[i], rate), max(fsyncs[i], n)
		}
	}
	for i, mode := range modes {
		t.Rows = append(t.Rows,
			[]string{"wal commits/sec (" + mode.name + ")", fmt.Sprintf("%.0f", best[i])},
			[]string{"wal fsyncs, most of 3 runs (" + mode.name + ")", fmt.Sprintf("%d", fsyncs[i])},
		)
	}
	t.Notes = append(t.Notes,
		"the restarted server recomputes the subscriber queue from the receipt DB: no duplicates, no losses",
		"group commit batches concurrent fsyncs behind a leader; the ablation shows the per-commit fsync cost it amortizes",
		"the writers commit in lockstep rounds, one arrival each per round, so a round under group commit is exactly one flush; commits/sec is the median round's rate")
	return t, nil
}

// walWriters is how many goroutines commit concurrently in the WAL
// ablation.
const walWriters = 8

// walThroughput runs perWriter lockstep rounds against a fresh store:
// in each, walWriters goroutines commit one arrival apiece, and the
// next round starts once all have returned, so no commit of a round can
// share a flush with another round's. It returns the commit rate of the
// median round (a round the host's other work stalled does not set it)
// and the WAL fsyncs the commits cost (the store's own
// bistro_receipts_fsync_seconds count).
func walThroughput(opts receipts.Options, perWriter int) (float64, int64, error) {
	dir, err := tempRoot("e10-wal")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	opts.Metrics = receipts.NewMetrics(metrics.NewRegistry())
	store, err := receipts.Open(dir, opts)
	if err != nil {
		return 0, 0, err
	}
	defer store.Close()
	fsyncs0 := opts.Metrics.FsyncSeconds.Count()
	rounds := make([]time.Duration, perWriter)
	for i := range rounds {
		start := time.Now()
		if err := inParallel(walWriters, func(w int) error {
			_, err := store.RecordArrival(receipts.FileMeta{
				Name: fmt.Sprintf("w%d-%d", w, i), StagedPath: "x",
				Feeds: []string{"F"}, Arrived: time.Now(),
			})
			return err
		}); err != nil {
			return 0, 0, err
		}
		rounds[i] = time.Since(start)
	}
	slices.Sort(rounds)
	return walWriters / rounds[len(rounds)/2].Seconds(), opts.Metrics.FsyncSeconds.Count() - fsyncs0, nil
}
