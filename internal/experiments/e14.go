package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"bistro/internal/diskfault"
	"bistro/internal/receipts"
	"bistro/internal/server"
)

// E14ParallelIngest measures what the sharded ingest pipeline and the
// WAL group-commit flush window buy on the classify+commit hot path.
// The server runs over a filesystem whose fsyncs cost a fixed 2ms —
// a model of real disk latency that makes the scaling deterministic
// in CI — while concurrent sources deposit into per-source
// directories. The serial row (1 worker, no flush window) is exactly
// the pre-pipeline code path; the sharded rows show staging fsyncs
// parallelizing across workers and receipt fsyncs amortizing across
// group-commit batches. Propagation p95 (arrival→subscriber) must
// stay under the paper's one-minute bound (§1) throughout.
func E14ParallelIngest(o Options) (Table, error) {
	t := Table{
		ID:     "E14",
		Title:  "parallel sharded ingest with WAL group-commit",
		Claim:  "sub-minute propagation at >100 feeds / 300 GB/day needs the ingest path off the single-fsync-per-file floor (§1, §4.1); sharding by source keeps per-source order while fsyncs overlap",
		Header: []string{"workers", "group_commit", "ingest time", "throughput", "speedup", "propagation p95"},
	}
	sources, perSource := 8, 30
	if o.Quick {
		perSource = 15
	}
	const fsyncLatency = 2 * time.Millisecond

	type rowCfg struct {
		workers int
		gc      bool
	}
	var baseline float64
	for _, rc := range []rowCfg{{1, false}, {1, true}, {2, true}, {4, true}} {
		r, err := E14IngestTrial(E14TrialConfig{
			Workers:      rc.workers,
			GroupCommit:  rc.gc,
			Sources:      sources,
			PerSource:    perSource,
			FsyncLatency: fsyncLatency,
		})
		if err != nil {
			return t, err
		}
		thru := float64(sources*perSource) / r.IngestTime.Seconds()
		gcCell := "off"
		if rc.gc {
			gcCell = "64/2ms"
		}
		if baseline == 0 {
			baseline = thru
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", rc.workers),
			gcCell,
			secs(r.IngestTime),
			fmt.Sprintf("%.0f files/s", thru),
			fmt.Sprintf("%.2fx", thru/baseline),
			ms(r.PropagationP95),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d sources deposit %d files each concurrently; every fsync costs %s (diskfault.Latency over the real filesystem)", sources, perSource, fsyncLatency),
		"row 1 (1 worker, no flush window) is the pre-pipeline serial path: per-file staging fsyncs plus a private WAL fsync",
		"sharding parallelizes the staging file+dir fsyncs across sources; group commit turns N WAL fsyncs into one per flush window",
		"acknowledgement semantics are identical in every row: Deposit returns only after the receipt batch is fsync-durable (E12's invariant)")
	return t, nil
}

// E14TrialConfig parameterizes one ingest-scaling trial.
type E14TrialConfig struct {
	Workers      int
	GroupCommit  bool
	Sources      int
	PerSource    int
	FsyncLatency time.Duration
}

// E14TrialResult carries one trial's measurements.
type E14TrialResult struct {
	// IngestTime is the wall time for all sources to deposit all files
	// — each Deposit blocks until classify+normalize+commit is
	// durable, so this is the classify+commit path under load.
	IngestTime time.Duration
	// PropagationP95 is the 95th-percentile deposit→delivered latency.
	PropagationP95 time.Duration
	// Files is how many files the sources deposited. StagingFsyncs
	// (file and directory) under the staging tree, WALFsyncs (the
	// receipt store's own bistro_receipts_fsync_seconds count) and
	// Commits, its transactions, are counted from the first deposit
	// until every file's delivery receipt is durable — what the
	// speed-up is made of, counted instead of timed.
	Files, StagingFsyncs, WALFsyncs, Commits int
}

// fsyncCounter counts the fsyncs issued under the staging tree.
type fsyncCounter struct {
	diskfault.FS
	staging string
	n       atomic.Int64
}

func (c *fsyncCounter) count(path string) {
	if strings.HasPrefix(path, c.staging) {
		c.n.Add(1)
	}
}

func (c *fsyncCounter) SyncDir(dir string) error {
	c.count(dir)
	return c.FS.SyncDir(dir)
}

func (c *fsyncCounter) OpenFile(name string, flag int, perm os.FileMode) (diskfault.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	return countedFile{f, c}, err
}

func (c *fsyncCounter) Open(name string) (diskfault.File, error) {
	f, err := c.FS.Open(name)
	return countedFile{f, c}, err
}

func (c *fsyncCounter) Create(name string) (diskfault.File, error) {
	f, err := c.FS.Create(name)
	return countedFile{f, c}, err
}

func (c *fsyncCounter) CreateTemp(dir, pattern string) (diskfault.File, error) {
	f, err := c.FS.CreateTemp(dir, pattern)
	return countedFile{f, c}, err
}

type countedFile struct {
	diskfault.File
	c *fsyncCounter
}

func (f countedFile) Sync() error {
	f.c.count(f.Name())
	return f.File.Sync()
}

// E14IngestTrial runs one full-server trial: concurrent per-source
// depositors over a fixed-fsync-latency filesystem, measuring ingest
// wall time and source→subscriber propagation.
func E14IngestTrial(cfg E14TrialConfig) (*E14TrialResult, error) {
	root, err := tempRoot("e14")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	text := fmt.Sprintf("ingest {\n    workers %d\n", cfg.Workers)
	if cfg.GroupCommit {
		text += "    group_commit { max_batch 64 max_delay 2ms }\n"
	}
	text += "}\n" + `
feed CPU { pattern "src%i/CPU_%Y%m%d%H%M%S.txt" }
subscriber wh { dest "in" subscribe CPU }
`
	clock := newPropagationClock()
	fsys := &fsyncCounter{
		FS:      diskfault.Latency(diskfault.OS(), cfg.FsyncLatency),
		staging: filepath.Join(root, "staging"),
	}
	srv, err := startServer(text, server.Options{Root: root, ScanInterval: -1, FS: fsys, OnEvent: clock.onEvent})
	if err != nil {
		return nil, err
	}
	defer srv.Stop()

	base := time.Date(2010, 9, 25, 0, 0, 0, 0, time.UTC)
	total := cfg.Sources * cfg.PerSource
	walSyncs := receipts.NewMetrics(srv.Metrics()).FsyncSeconds // the store's registered histogram
	stagingN0, walN0, commits0 := fsys.n.Load(), walSyncs.Count(), srv.Store().Stats().Commits
	ingestTime, err := clock.depositSources(srv, cfg.Sources, cfg.PerSource, func(s, i int) string {
		ts := base.Add(time.Duration(s*cfg.PerSource+i) * time.Second)
		return fmt.Sprintf("src%d/CPU_%s.txt", s+1, ts.Format("20060102150405"))
	}, []byte("cpu=42 mem=17\n"))
	if err != nil {
		return nil, fmt.Errorf("e14: %w", err)
	}

	// Drain delivery, then pair each receipt with its deposit time.
	props, err := clock.drained(srv.Store(), total, 60*time.Second)
	if err != nil {
		return nil, fmt.Errorf("e14: %w", err)
	}
	return &E14TrialResult{
		IngestTime:     ingestTime,
		Files:          total,
		StagingFsyncs:  int(fsys.n.Load() - stagingN0),
		WALFsyncs:      int(walSyncs.Count() - walN0),
		Commits:        srv.Store().Stats().Commits - commits0,
		PropagationP95: props[len(props)*95/100],
	}, nil
}
