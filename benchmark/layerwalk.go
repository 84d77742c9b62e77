//go:build linux

package benchmark

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"bistro/internal/classifier"
	"bistro/internal/delivery"
	"bistro/internal/diskfault"
	"bistro/internal/ingest"
	"bistro/internal/normalize"
	"bistro/internal/plan"
	"bistro/internal/protocol"
	"bistro/internal/receipts"
	"bistro/internal/scheduler"
)

// walkBytes caps the payload the walk pushes through a byte-path layer.
const walkBytes = 48 << 20

// walk is one layer walk: the sample it pushes through the layers
// and where the results go.
type walk struct {
	r       *runner
	sample  []File
	scratch string
	feed    string                 // the feed the history-sized reads use
	cls     *classifier.Classifier // the workload's feed set, metrics off
	v       map[string]float64
}

// layerWalk is the second per-layer source: after the load phases it
// pushes a sample of the same generated files through each layer's
// public functions directly, one call at a time, on the quiet process.
// History-sized reads run against the live server's state.
func (r *runner) layerWalk(v map[string]float64) error {
	w := &walk{r: r, v: v, feed: r.w.Feed, scratch: filepath.Join(r.in.root, "walk"),
		cls: classifier.New(r.in.cfg.Feeds, classifier.Options{})}
	// The sample: the first files of the seeded sequence, up to 64
	// files or walkBytes.
	total := 0
	for k := 0; len(w.sample) < 64 && total < walkBytes; k++ {
		f := r.gen.File(k)
		w.sample = append(w.sample, f)
		total += len(f.Data)
	}
	if err := os.MkdirAll(w.scratch, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(w.scratch)
	for _, step := range []func() error{
		w.codec, w.classify, w.stage, w.runPlan,
		w.commit, w.history, w.schedule, w.handoff,
	} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// mallocs is the exact count of heap objects allocated so far
// (ReadMemStats stops the world and flushes every per-P cache, which
// the cheaper runtime/metrics counter does not).
func mallocs() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs)
}

// bufConn is a net.Conn over a buffer: the protocol walk measures the
// frame codec's own cost, with no kernel in the path.
type bufConn struct{ bytes.Buffer }

func (*bufConn) Close() error                     { return nil }
func (*bufConn) LocalAddr() net.Addr              { return nil }
func (*bufConn) RemoteAddr() net.Addr             { return nil }
func (*bufConn) SetDeadline(time.Time) error      { return nil }
func (*bufConn) SetReadDeadline(time.Time) error  { return nil }
func (*bufConn) SetWriteDeadline(time.Time) error { return nil }

// codec encodes and decodes the frames a file travels in: its
// Upload, and its Deliver (below the stream threshold) or its
// DeliverBegin/Chunk/End sequence (above it).
func (w *walk) codec() error {
	conn := protocol.NewConn(&bufConn{})
	const chunk = 256 << 10
	var encNs, decNs, mb, frames float64
	send := func(msg any, payload int) error {
		start := time.Now()
		if err := conn.Send(msg); err != nil {
			return err
		}
		sent := time.Now()
		_, err := conn.Recv()
		decNs += float64(time.Since(sent))
		encNs += float64(sent.Sub(start))
		mb += float64(payload) / 1e6
		frames++
		return err
	}
	allocs := mallocs()
	for _, f := range w.sample {
		if err := send(protocol.Upload{Name: f.Name, Data: f.Data, CRC: f.CRC}, len(f.Data)); err != nil {
			return fmt.Errorf("protocol walk: %w", err)
		}
		if len(f.Data) < streamThreshold {
			if err := send(protocol.Deliver{FileID: uint64(f.K), Name: f.Name, Data: f.Data, CRC: f.CRC}, len(f.Data)); err != nil {
				return fmt.Errorf("protocol walk: %w", err)
			}
			continue
		}
		if err := send(protocol.DeliverBegin{FileID: uint64(f.K), Name: f.Name, Size: int64(len(f.Data)), CRC: f.CRC}, 0); err != nil {
			return fmt.Errorf("protocol walk: %w", err)
		}
		for off := 0; off < len(f.Data); off += chunk {
			part := f.Data[off:min(off+chunk, len(f.Data))]
			if err := send(protocol.DeliverChunk{Data: part}, len(part)); err != nil {
				return fmt.Errorf("protocol walk: %w", err)
			}
		}
		if err := send(protocol.DeliverEnd{}, 0); err != nil {
			return fmt.Errorf("protocol walk: %w", err)
		}
	}
	allocs = mallocs() - allocs
	w.v["protocol.encode_ns_per_mb"] = encNs / mb
	w.v["protocol.decode_ns_per_mb"] = decNs / mb
	w.v["protocol.allocs_per_frame"] = allocs / frames
	return nil
}

// classify classifies the sample's names against the workload's
// feed set, then times the winning pattern's Match alone.
func (w *walk) classify() error {
	matches := make([]classifier.Match, len(w.sample))
	allocs := mallocs()
	start := time.Now()
	for i, f := range w.sample {
		m := w.cls.Classify(f.Name)
		if len(m) == 0 {
			return fmt.Errorf("classifier walk: %s matches no feed", f.Name)
		}
		matches[i] = m[0]
	}
	classifyNs := float64(time.Since(start))
	allocs = mallocs() - allocs
	start = time.Now()
	for i, f := range w.sample {
		matches[i].Pattern.Match(f.Name)
	}
	matchNs := float64(time.Since(start))
	n := float64(len(w.sample))
	w.v["classifier.classify_ns"] = classifyNs / n
	w.v["classifier.allocs_per_call"] = allocs / n
	w.v["pattern.match_ns"] = matchNs / n
	return nil
}

// stage stages the sample the way processArrival does:
// StagedName, then the durable ProcessFS (temp, fsync, rename, dir
// fsync) on the real filesystem.
func (w *walk) stage() error {
	fsys := diskfault.OS()
	var ns, bytesTotal float64
	for _, f := range w.sample {
		m := w.cls.Classify(f.Name)[0]
		src := filepath.Join(w.scratch, "landing", filepath.FromSlash(f.Name))
		if err := os.MkdirAll(filepath.Dir(src), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(src, f.Data, 0o644); err != nil {
			return err
		}
		start := time.Now()
		staged, err := normalize.StagedName(m.Feed, f.Name, m.Fields)
		if err == nil {
			_, err = normalize.ProcessFS(fsys, src, filepath.Join(w.scratch, "staging", staged), m.Feed.Compress)
		}
		ns += float64(time.Since(start))
		if err != nil {
			return fmt.Errorf("normalize walk: %w", err)
		}
		bytesTotal += float64(len(f.Data))
		os.Remove(src)
	}
	w.v["normalize.stage_us_per_file"] = ns / 1e3 / float64(len(w.sample))
	w.v["normalize.ns_per_byte"] = ns / bytesTotal
	return nil
}

// runPlan runs the workload's compiled plan over the sample into
// discard sinks: operator CPU alone, no staging.
func (w *walk) runPlan() error {
	set, err := plan.Compile(w.r.in.cfg, plan.Options{Root: w.r.in.root})
	if err != nil {
		return fmt.Errorf("plan walk: %w", err)
	}
	if set.Len() == 0 {
		return nil
	}
	discard := func() (io.Writer, error) { return io.Discard, nil }
	sinks := plan.Sinks{Primary: discard, Reject: discard,
		Derived: func(string) (io.Writer, error) { return io.Discard, nil }}
	var ns, records float64
	allocs := mallocs()
	for _, f := range w.sample[:min(len(w.sample), 8)] {
		prog := set.For(w.cls.Classify(f.Name)[0].Feed.Path)
		if prog == nil {
			continue
		}
		start := time.Now()
		stats, err := prog.Run(bytes.NewReader(f.Data), sinks)
		if err != nil {
			return fmt.Errorf("plan walk: %w", err)
		}
		ns += float64(time.Since(start))
		records += float64(stats.Records)
	}
	allocs = mallocs() - allocs
	if records > 0 {
		w.v["plan.ns_per_record"] = ns / records
		w.v["plan.allocs_per_record"] = allocs / records
	}
	return nil
}

// commit times single-threaded durable commits on a scratch
// store configured like the server's (one WAL fsync each: the flush
// window finds no companions), and a checkpoint of the live store.
func (w *walk) commit() error {
	store, err := receipts.Open(filepath.Join(w.scratch, "receipts"), receipts.Options{
		GroupCommit: receipts.GroupCommitConfig{MaxBatch: 64, MaxDelay: 2 * time.Millisecond},
	})
	if err != nil {
		return fmt.Errorf("receipts walk: %w", err)
	}
	defer store.Close()
	const n = 32
	start := time.Now()
	for i := 0; i < n; i++ {
		f := w.sample[i%len(w.sample)]
		id, err := store.RecordArrival(receipts.FileMeta{Name: f.Name, StagedPath: w.feed + "/" + f.Name,
			Feeds: []string{w.feed}, Size: int64(len(f.Data)), Checksum: f.CRC, Arrived: time.Now()})
		if err == nil {
			err = store.RecordDelivery(id, subscriberName, time.Now())
		}
		if err != nil {
			return fmt.Errorf("receipts walk: %w", err)
		}
	}
	w.v["receipts.commit_us"] = usOf(time.Since(start)) / (2 * n)

	start = time.Now()
	if err := w.r.in.srv.Store().Checkpoint(); err != nil {
		return fmt.Errorf("receipts walk: checkpoint: %w", err)
	}
	w.v["receipts.checkpoint_ms"] = msOf(time.Since(start))
	return nil
}

// history times the reads whose cost grows with receipt history,
// against the live server's store and archive manifest.
func (w *walk) history() error {
	srv := w.r.in.srv
	const reps = 20
	per := func(fn func()) float64 {
		start := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		return usOf(time.Since(start)) / reps
	}
	w.v["receipts.feedlog_us"] = per(func() { srv.Store().FeedLog(w.feed) })
	w.v["receipts.pendingfor_us"] = per(func() { srv.Store().PendingFor(subscriberName, []string{w.feed}) })
	if man := srv.Archiver().Manifest(); man != nil {
		w.v["archive.entries_since_us"] = per(func() { man.EntriesSince(w.feed, 0) })
	}
	w.v["httpfeed.feedhttplog_us"] = per(func() { srv.FeedHTTPLog(w.feed) })
	return nil
}

// schedule cycles jobs through a scratch scheduler laid out like
// the delivery engine's default.
func (w *walk) schedule() error {
	sched, err := scheduler.New(delivery.DefaultSchedulerConfig())
	if err != nil {
		return fmt.Errorf("scheduler walk: %w", err)
	}
	defer sched.Close()
	if err := sched.AssignSubscriber(subscriberName, 1); err != nil {
		return fmt.Errorf("scheduler walk: %w", err)
	}
	const n = 2000
	now := time.Now()
	start := time.Now()
	for i := 0; i < n; i++ {
		f := w.sample[i%len(w.sample)]
		sched.Submit(&scheduler.Job{FileID: uint64(i + 1), Feed: w.feed, Subscriber: subscriberName,
			Path: f.Name, Size: int64(len(f.Data)), Release: now, Deadline: now.Add(time.Minute)})
		for _, j := range sched.Next(1, scheduler.LaneRealtime) {
			sched.Done(j)
		}
	}
	w.v["scheduler.submit_next_done_ns"] = float64(time.Since(start)) / n
	return nil
}

// handoff times the sharded pipeline's hand-off alone: Ingest with
// a stage that does nothing.
func (w *walk) handoff() error {
	pipe, err := ingest.New(ingest.Options{
		Workers: 2,
		Process: func(_, rel string) ([]receipts.FileMeta, error) {
			return []receipts.FileMeta{{Name: rel}}, nil
		},
		Deliver: func(receipts.FileMeta) {},
	})
	if err != nil {
		return fmt.Errorf("ingest walk: %w", err)
	}
	defer pipe.Stop()
	const n = 2000
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := pipe.Ingest("", w.sample[i%len(w.sample)].Name); err != nil {
			return fmt.Errorf("ingest walk: %w", err)
		}
	}
	w.v["ingest.handoff_ns"] = float64(time.Since(start)) / n
	return nil
}
