package experiments

import (
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"bistro/internal/archive"
	"bistro/internal/clock"
	"bistro/internal/config"
	"bistro/internal/delivery"
	"bistro/internal/diskfault"
	"bistro/internal/metrics"
	"bistro/internal/normalize"
	"bistro/internal/oracle"
	"bistro/internal/receipts"
	"bistro/internal/server"
	"bistro/internal/transport"
)

// tempRoot makes a fresh temporary directory for one trial, with the
// named subdirectories in it; remove it with os.RemoveAll.
func tempRoot(name string, subdirs ...string) (string, error) {
	root, err := os.MkdirTemp("", "bistro-"+name+"-*")
	if err != nil {
		return "", err
	}
	for _, d := range subdirs {
		if err := os.MkdirAll(filepath.Join(root, d), 0o755); err != nil {
			os.RemoveAll(root)
			return "", err
		}
	}
	return root, nil
}

// dirStats counts the regular files under dir and totals their sizes
// (zero for a missing dir).
func dirStats(dir string) (files int, bytes int64) {
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			files++
			bytes += info.Size()
		}
		return nil
	})
	return files, bytes
}

// dirBytes totals the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	_, n := dirStats(dir)
	return n
}

// waitFor polls cond every 2 ms until it holds or timeout passes, and
// reports whether it held.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}

// parseConfig parses configuration text the harness wrote itself, so a
// parse error is a bug in the harness.
func parseConfig(text string) *config.Config {
	cfg, err := config.Parse(text)
	if err != nil {
		panic(fmt.Sprintf("experiments: harness config: %v", err))
	}
	return cfg
}

// startServer runs a server on configuration text with opts.
func startServer(text string, opts server.Options) (*server.Server, error) {
	opts.Config = parseConfig(text)
	srv, err := server.New(opts)
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		srv.Stop()
		return nil, err
	}
	return srv, nil
}

// crcOf is the IEEE CRC-32 of s.
func crcOf(s string) uint32 { return crc32.ChecksumIEEE([]byte(s)) }

// deposit deposits one file through srv and records the attempt in l.
func deposit(srv *server.Server, l *oracle.Ledger, name, payload string) {
	err := srv.Deposit(name, []byte(payload))
	l.Deposit(name, crcOf(payload), err == nil)
}

// inParallel runs fn(0) .. fn(n-1) on n goroutines, waits for all of
// them, and returns the first error.
func inParallel(n int, fn func(i int) error) error {
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := fn(i); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// powerCut returns the power-cut filesystem a crash round runs over,
// cut not yet armed. NoSync below the fault layer: the simulation
// tracks durability itself, so real fsyncs would only slow the harness
// down.
func powerCut(opts diskfault.Options, seed int64) *diskfault.Faulty {
	opts.Seed = seed
	opts.PowerCut = true
	opts.TornWrites = true
	return diskfault.NewFaulty(diskfault.NoSync(diskfault.OS()), opts)
}

// raceTheCut lets srv's in-flight deliveries to sub race an armed cut
// for up to wait, and reports whether the cut fell.
func raceTheCut(srv *server.Server, faulty *diskfault.Faulty, l *oracle.Ledger, sub string, wait time.Duration) bool {
	waitFor(wait, func() bool {
		return faulty.Crashed() || srv.Store().DeliveredCount(sub) >= l.Acked()
	})
	return faulty.Crashed()
}

// checkRecovered feeds l what a (re)started store holds, checking each
// live receipt's payload under root's staging directory. It returns the
// receipts no acked deposit names.
func checkRecovered(l *oracle.Ledger, store *receipts.Store, root string) int {
	var rs []oracle.Receipt
	for _, m := range store.AllFiles() {
		r := oracle.Receipt{Name: m.Name, Quarantined: store.Quarantined(m.ID), Intact: true}
		if !r.Quarantined && !store.IsExpired(m.ID) {
			crc, size, err := normalize.ChecksumFile(filepath.Join(root, "staging", filepath.FromSlash(m.StagedPath)))
			r.Intact = err == nil && size == m.Size && crc == m.Checksum
		}
		rs = append(rs, r)
	}
	return l.Recovered(rs)
}

// holdsIn checks a destination tree: whether dir holds file with
// content crc.
func holdsIn(dir string) func(file string, crc uint32) bool {
	return func(file string, crc uint32) bool {
		got, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(file)))
		return err == nil && crc32.ChecksumIEEE(got) == crc
	}
}

// arrival is one delivery's wall-clock time, by file base name.
type arrival struct {
	name string
	at   time.Time
}

// recorder is an in-process transport that feeds every delivery to a
// ledger on one plane, keyed by the file's base name, and stamps it
// with its arrival time. A delay models per-transfer wire time;
// firstOnly stamps only each (subscriber, file)'s first arrival.
type recorder struct {
	ledger    *oracle.Ledger
	plane     oracle.Plane
	delay     time.Duration
	firstOnly bool

	mu       sync.Mutex
	bytes    int64
	arrivals []arrival
}

func (r *recorder) Deliver(sub string, f transport.File) error {
	if r.delay > 0 {
		time.Sleep(r.delay)
	}
	r.observe(sub, f.Name, f.CRC, int64(len(f.Data)))
	return nil
}

// observe records that sub got the file at path name, with content
// crc and n bytes, now.
func (r *recorder) observe(sub, name string, crc uint32, n int64) {
	at := time.Now()
	name = path.Base(name)
	first := r.ledger.Deliver(r.plane, sub, name, crc)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.bytes += n
	if first || !r.firstOnly {
		r.arrivals = append(r.arrivals, arrival{name, at})
	}
}

func (r *recorder) Notify(sub string, f transport.File) error { return r.Deliver(sub, f) }

func (r *recorder) Trigger(sub, cmd string, paths []string) error { return nil }

func (r *recorder) Ping(sub string) error { return nil }

// latencies returns each arrival's delay after its file's sent time,
// sorted; arrivals of files with no sent time are skipped.
func latencies(arrivals []arrival, sent map[string]time.Time) []time.Duration {
	var out []time.Duration
	for _, a := range arrivals {
		if t, ok := sent[a.name]; ok {
			out = append(out, a.at.Sub(t))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// percentiles returns the 50th and 99th percentiles of sorted.
func percentiles(sorted []time.Duration) (p50, p99 time.Duration) {
	if len(sorted) == 0 {
		return 0, 0
	}
	return sorted[len(sorted)/2], sorted[len(sorted)*99/100]
}

// meanDuration is the mean of ds (zero for none).
func meanDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// maxDuration is the largest of ds (zero for none).
func maxDuration(ds []time.Duration) time.Duration {
	var m time.Duration
	for _, d := range ds {
		m = max(m, d)
	}
	return m
}

// stagedStore is the receipt store and staging directory of an
// engine-level trial, under one temporary root.
type stagedStore struct {
	root, staging string
	store         *receipts.Store
}

func newStagedStore(name string) (*stagedStore, error) {
	root, err := tempRoot(name)
	if err != nil {
		return nil, err
	}
	store, err := receipts.Open(filepath.Join(root, "db"), receipts.Options{NoSync: true})
	if err != nil {
		os.RemoveAll(root)
		return nil, err
	}
	return &stagedStore{root: root, staging: filepath.Join(root, "staging"), store: store}, nil
}

// opener returns the stored-file opener of an engine over s: staging,
// no archive, the bytes read counted into read (nil counts nothing).
func (s *stagedStore) opener(read *metrics.Counter) func(string) (io.ReadCloser, error) {
	// With no archive root, New has no directory to make and cannot fail.
	arch, _ := archive.New(s.store, clock.NewReal(), s.staging, "", 0)
	return arch.Opener(read)
}

func (s *stagedStore) close() {
	s.store.Close()
	os.RemoveAll(s.root)
}

// stage writes payload as the staged file name (feed-relative path
// under staging) and records its arrival on feed at at.
func (s *stagedStore) stage(name, feed string, payload []byte, at time.Time) (receipts.FileMeta, error) {
	p := filepath.Join(s.staging, filepath.FromSlash(name))
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return receipts.FileMeta{}, err
	}
	if err := os.WriteFile(p, payload, 0o644); err != nil {
		return receipts.FileMeta{}, err
	}
	meta := receipts.FileMeta{
		Name: name, StagedPath: name, Feeds: []string{feed},
		Size: int64(len(payload)), Checksum: crc32.ChecksumIEEE(payload), Arrived: at,
	}
	id, err := s.store.RecordArrival(meta)
	meta.ID = id
	return meta, err
}

// propagationClock times files from deposit to delivery on a full
// server: concurrent per-source depositors stamp each landing name as
// its deposit starts, and OnEvent stamps each (file, subscriber)
// delivery.
type propagationClock struct {
	mu        sync.Mutex
	started   map[string]time.Time  // landing name -> deposit start
	delivered map[fileSub]time.Time // (file id, subscriber) -> delivered at
}

// fileSub is one file's delivery to one subscriber.
type fileSub struct {
	id  uint64
	sub string
}

func newPropagationClock() *propagationClock {
	return &propagationClock{started: make(map[string]time.Time), delivered: make(map[fileSub]time.Time)}
}

// onEvent is the server's OnEvent hook.
func (c *propagationClock) onEvent(ev delivery.Event) {
	if ev.Kind != delivery.EvDelivered {
		return
	}
	c.mu.Lock()
	c.delivered[fileSub{ev.FileID, ev.Subscriber}] = time.Now()
	c.mu.Unlock()
}

// depositSources runs sources concurrent depositors of perSource
// files each through srv, file i of source s named name(s, i), and
// returns the ingest wall time.
func (c *propagationClock) depositSources(srv *server.Server, sources, perSource int, name func(s, i int) string, payload []byte) (time.Duration, error) {
	start := time.Now()
	err := inParallel(sources, func(s int) error {
		for i := 0; i < perSource; i++ {
			n := name(s, i)
			c.mu.Lock()
			c.started[n] = time.Now()
			c.mu.Unlock()
			if err := srv.Deposit(n, payload); err != nil {
				return fmt.Errorf("deposit %s: %w", n, err)
			}
		}
		return nil
	})
	return time.Since(start), err
}

// drained waits up to timeout for want deliveries, then pairs each
// with its deposit through the receipt store; the returned latencies
// are sorted.
func (c *propagationClock) drained(store *receipts.Store, want int, timeout time.Duration) ([]time.Duration, error) {
	count := func() int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.delivered)
	}
	if !waitFor(timeout, func() bool { return count() >= want }) {
		return nil, fmt.Errorf("%d of %d delivered before timeout", count(), want)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	props := make([]time.Duration, 0, len(c.delivered))
	for d, at := range c.delivered {
		meta, ok := store.File(d.id)
		if !ok {
			return nil, fmt.Errorf("delivered file %d has no receipt", d.id)
		}
		t0, ok := c.started[meta.Name]
		if !ok {
			return nil, fmt.Errorf("delivered %q never deposited", meta.Name)
		}
		props = append(props, at.Sub(t0))
	}
	sort.Slice(props, func(i, j int) bool { return props[i] < props[j] })
	return props, nil
}
