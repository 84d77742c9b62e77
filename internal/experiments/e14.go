package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bistro/internal/config"
	"bistro/internal/delivery"
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
	root, err := os.MkdirTemp("", "bistro-e14-*")
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
	conf, err := config.Parse(text)
	if err != nil {
		return nil, err
	}

	var (
		mu        sync.Mutex
		started   = make(map[string]time.Time) // landing name -> deposit start
		delivered = make(map[uint64]time.Time) // file id -> delivered at
	)
	fsys := &fsyncCounter{
		FS:      diskfault.Latency(diskfault.OS(), cfg.FsyncLatency),
		staging: filepath.Join(root, "staging"),
	}
	var srv *server.Server
	srv, err = server.New(server.Options{
		Config: conf, Root: root, ScanInterval: -1,
		FS: fsys,
		OnEvent: func(ev delivery.Event) {
			if ev.Kind != delivery.EvDelivered {
				return
			}
			mu.Lock()
			delivered[ev.FileID] = time.Now()
			mu.Unlock()
		},
	})
	if err != nil {
		return nil, err
	}
	defer srv.Stop()
	if err := srv.Start(); err != nil {
		return nil, err
	}

	base := time.Date(2010, 9, 25, 0, 0, 0, 0, time.UTC)
	payload := []byte("cpu=42 mem=17\n")
	total := cfg.Sources * cfg.PerSource
	walSyncs := receipts.NewMetrics(srv.Metrics()).FsyncSeconds // the store's registered histogram
	stagingN0, walN0, commits0 := fsys.n.Load(), walSyncs.Count(), srv.Store().Stats().Commits
	start := time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, cfg.Sources)
	for s := 0; s < cfg.Sources; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < cfg.PerSource; i++ {
				ts := base.Add(time.Duration(s*cfg.PerSource+i) * time.Second)
				name := fmt.Sprintf("src%d/CPU_%s.txt", s+1, ts.Format("20060102150405"))
				mu.Lock()
				started[name] = time.Now()
				mu.Unlock()
				if err := srv.Deposit(name, payload); err != nil {
					errCh <- fmt.Errorf("e14: deposit %s: %w", name, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	ingestTime := time.Since(start)
	select {
	case err := <-errCh:
		return nil, err
	default:
	}

	// Drain delivery, then pair each receipt with its deposit time.
	deadline := time.Now().Add(60 * time.Second)
	for {
		mu.Lock()
		n := len(delivered)
		mu.Unlock()
		if n >= total {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("e14: %d of %d delivered before timeout", n, total)
		}
		time.Sleep(2 * time.Millisecond)
	}
	res := &E14TrialResult{
		IngestTime:    ingestTime,
		Files:         total,
		StagingFsyncs: int(fsys.n.Load() - stagingN0),
		WALFsyncs:     int(walSyncs.Count() - walN0),
		Commits:       srv.Store().Stats().Commits - commits0,
	}
	props := make([]time.Duration, 0, total)
	mu.Lock()
	for id, at := range delivered {
		meta, ok := srv.Store().File(id)
		if !ok {
			mu.Unlock()
			return nil, fmt.Errorf("e14: delivered file %d has no receipt", id)
		}
		t0, ok := started[meta.Name]
		if !ok {
			mu.Unlock()
			return nil, fmt.Errorf("e14: delivered %q never deposited", meta.Name)
		}
		props = append(props, at.Sub(t0))
	}
	mu.Unlock()
	sort.Slice(props, func(i, j int) bool { return props[i] < props[j] })
	res.PropagationP95 = props[len(props)*95/100]
	return res, nil
}
