//go:build linux

package benchmark

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// MetricDef names one reported metric and its unit. Direction and
// regression bound live in BENCHMARK.json, which a harness test keeps
// in step with these tables.
type MetricDef struct {
	Name, Unit string
}

// EndToEnd lists what a user of the system would see. With tracing
// off a run reports exactly these.
var EndToEnd = []MetricDef{
	{"setup_s", "s"},
	{"files_per_s", "files/s"},
	{"mb_per_s", "MB/s"},
	{"deposit_ack_p25_ms", "ms"},
	{"propagation_p25_ms", "ms"},
	{"allocs_per_file", "count"},
	{"alloc_kb_per_file", "KiB"},
	{"peak_rss_mb", "MiB"},
}

// PerLayer lists the single-layer metrics (<module>.<metric>). A
// traced run reports exactly these; a metric whose layer the workload
// does not exercise reads 0.
var PerLayer = []MetricDef{
	{"protocol.encode_ns_per_mb", "ns/MB"},
	{"protocol.decode_ns_per_mb", "ns/MB"},
	{"protocol.allocs_per_frame", "count"},
	{"landing.write_us_per_file", "us"},
	{"landing.bytes_written_per_payload_byte", "ratio"},
	{"ingest.handoff_ns", "ns"},
	{"ingest.handoff_blocked_per_kfile", "count"},
	{"ingest.queue_depth_mean", "count"},
	{"classifier.classify_ns", "ns"},
	{"classifier.patterns_tried_per_file", "count"},
	{"classifier.allocs_per_call", "count"},
	{"pattern.match_ns", "ns"},
	{"normalize.stage_us_per_file", "us"},
	{"normalize.fsyncs_per_file", "count"},
	{"normalize.ns_per_byte", "ns/B"},
	{"plan.ns_per_record", "ns"},
	{"plan.allocs_per_record", "count"},
	{"plan.op_share.decompress", "ratio"},
	{"plan.op_share.parse", "ratio"},
	{"plan.op_share.validate", "ratio"},
	{"plan.op_share.extract", "ratio"},
	{"plan.op_share.enrich", "ratio"},
	{"plan.op_share.route", "ratio"},
	{"plan.staged_bytes_per_payload_byte", "ratio"},
	{"plan.fsyncs_per_file", "count"},
	{"receipts.wal_fsyncs_per_file", "count"},
	{"receipts.wal_bytes_per_file", "B"},
	{"receipts.fsync_us_p50", "us"},
	{"receipts.group_batch_mean", "count"},
	{"receipts.commit_us", "us"},
	{"receipts.delivery_commits_per_file", "count"},
	{"receipts.checkpoint_ms", "ms"},
	{"receipts.feedlog_us", "us"},
	{"receipts.pendingfor_us", "us"},
	{"archive.entries_since_us", "us"},
	{"archive.expire_ms_per_kfile", "ms"},
	{"httpfeed.feedhttplog_us", "us"},
	{"httpfeed.tail_page_ms_p50", "ms"},
	{"httpfeed.polls_per_s", "1/s"},
	{"httpfeed.bytes_per_poll", "B"},
	{"httpfeed.not_modified_share", "ratio"},
	{"httpfeed.content_get_ms_per_mb", "ms/MB"},
	{"scheduler.submit_next_done_ns", "ns"},
	{"scheduler.queue_depth_mean", "count"},
	{"delivery.ack_to_received_ms_p50", "ms"},
	{"delivery.received_to_receipt_ms_p50", "ms"},
	{"delivery.staging_read_bytes_per_payload_byte", "ratio"},
	{"delivery.inline_ms_per_mb", "ms/MB"},
	{"delivery.stream_ms_per_mb", "ms/MB"},
	{"delivery.retries", "count"},
	{"delivery.failures", "count"},
	{"diskfault.fsyncs_per_file", "count"},
	{"diskfault.bytes_written_per_payload_byte", "ratio"},
	{"diskfault.bytes_read_per_payload_byte", "ratio"},
	{"diskfault.fsync_us_p50", "us"},
	{"diskfault.busy_share", "ratio"},
	{"server.start_ms", "ms"},
	{"server.reconcile_ms", "ms"},
	{"server.deposit_ack_p50_ms", "ms"},
	{"server.deposit_ack_p95_ms", "ms"},
	{"server.deposit_ack_p99_ms", "ms"},
	{"server.propagation_p50_ms", "ms"},
	{"server.propagation_p95_ms", "ms"},
	{"server.propagation_p99_ms", "ms"},
	{"server.cpu_s_per_gb", "CPU-s/GB"},
	{"server.cpu_ms_per_file", "ms"},
	{"server.files_per_s_mean", "files/s"},
	{"server.ingest_files_per_s", "files/s"},
	{"server.backlog_end", "count"},
	{"server.gc_pause_ms", "ms"},
	{"server.goroutines_peak", "count"},
	{"server.failed_share", "ratio"},
	{"gen.late_p99_ms", "ms"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_share", "ratio"},
}

// lateLimit is the paper's sub-minute propagation bound: a file not in
// its consumer's hands this long after it was due has failed.
const lateLimit = 60 * time.Second

// e2e is the end-to-end computation's outcome.
type e2e struct {
	values map[string]float64
	info   map[string]any
	// Paced-phase samples, kept for the traced run's p50 to p99 figures.
	ackMs, propMs, lateMs []float64
	// filesPerSMean is the saturated phase's plain mean rate.
	filesPerSMean float64
}

// endToEnd derives the end-to-end metrics: capacity and cost from the
// saturated phase, latency from the paced phase, timed from the due
// time.
//
// The time metrics are taken where the host left the run alone. A
// shared host only ever slows a run down — by a few per cent for
// minutes, or by half for seconds — so the slow side of every
// distribution belongs to the host and the fast side to the program:
// throughput is the mean of the fastest quarter of the saturated
// phase's one-second windows, latency the lower quartile of the paced
// phase's files. The plain mean and the medians are reported beside
// them as information.
func endToEnd(recs []fileRec, paced, sat *window, setupS float64) e2e {
	out := e2e{values: make(map[string]float64), info: make(map[string]any)}
	var at []time.Duration
	var one, mb []float64
	for i := range recs {
		rec := &recs[i]
		if !rec.received.IsZero() && !rec.received.Before(sat.start) && rec.received.Before(sat.end) {
			at = append(at, rec.received.Sub(sat.start))
			one = append(one, 1)
			mb = append(mb, float64(rec.size)/1e6)
		}
		if rec.phase != phasePaced {
			continue
		}
		out.lateMs = append(out.lateMs, msOf(lateness(rec.ready, rec.started)))
		if !rec.acked.IsZero() {
			out.ackMs = append(out.ackMs, msOf(rec.acked.Sub(rec.due)))
		}
		if !rec.received.IsZero() {
			out.propMs = append(out.propMs, msOf(rec.received.Sub(rec.due)))
		}
	}
	paced.count(recs)
	sat.count(recs)
	v := out.values
	v["setup_s"] = setupS
	v["deposit_ack_p25_ms"] = percentile(out.ackMs, 25)
	v["propagation_p25_ms"] = percentile(out.propMs, 25)
	secs := sat.length.Seconds()
	if sat.files > 0 && secs > 0 {
		perWindow := windowRates(at, one, sat.length)
		v["files_per_s"] = fastestQuarter(perWindow)
		v["mb_per_s"] = fastestQuarter(windowRates(at, mb, sat.length))
		out.filesPerSMean = float64(sat.files) / secs
		out.info["files_per_s_mean"] = out.filesPerSMean
		out.info["files_per_s_windows"] = perWindow
		// Informational: CPU time inflates with host contention, so it
		// repeats too poorly to carry a bound (README, "demoted").
		out.info["cpu_s_per_gb"] = sat.cpu / (float64(sat.bytes) / 1e9)
		v["allocs_per_file"] = float64(sat.allocObjs) / float64(sat.files)
		v["alloc_kb_per_file"] = float64(sat.allocBytes) / 1024 / float64(sat.files)
	}
	out.info["samples"] = map[string]int{
		"paced_acked":         len(out.ackMs),
		"paced_delivered":     len(out.propMs),
		"saturated_delivered": sat.files,
		"saturated_acked":     sat.acked,
	}
	out.info["deposit_ack_p50_ms"] = percentile(out.ackMs, 50)
	out.info["propagation_p50_ms"] = percentile(out.propMs, 50)
	out.info["gen_late_p99_ms"] = percentile(out.lateMs, 99)
	out.info["paced_backlog_end"] = paced.backlogEnd
	return out
}

// oracleOut is the oracle's verdict on one run.
type oracleOut struct {
	attempted  int
	failed     int
	counts     map[string]int
	violations []string
}

func (o *oracleOut) correct() bool { return o.failed == 0 && len(o.violations) == 0 }

func (o *oracleOut) fail(kind string, n int) {
	if n > 0 {
		o.counts[kind] += n
		o.failed += n
	}
}

// maxViolations bounds the per-file detail kept in the result.
const maxViolations = 20

func (o *oracleOut) note(format string, args ...any) {
	if len(o.violations) < maxViolations {
		o.violations = append(o.violations, fmt.Sprintf(format, args...))
	}
}

// oracle checks the run's outputs: every acked deposit reached the
// consumer exactly once with matching size and CRC (or, through a
// plan, the generator's record counts) and in time; the pull cursor
// saw a hole-free, duplicate-free seq stream; nothing was refused,
// retried into a duplicate, or failed on the delivery side.
func (r *runner) oracle(recs []fileRec, drained bool) oracleOut {
	o := oracleOut{counts: make(map[string]int)}
	if !drained {
		o.note("drain timed out with %d acked deposits undelivered", r.led.pending())
	}
	wantRejects, planned := 0, false
	for i := range recs {
		rec := &recs[i]
		o.attempted++
		if rec.err != nil {
			o.fail("deposit_errors", 1)
			o.note("deposit %s: %v", rec.name, rec.err)
			continue
		}
		if rec.ref != nil {
			planned = true
			wantRejects += rec.ref.Rejects
		}
		from := rec.due
		if from.IsZero() {
			from = rec.started
		}
		switch {
		case rec.received.IsZero():
			o.fail("lost", 1)
			o.note("%s: acked but %d of %d outputs delivered", rec.name, rec.got, r.w.Outputs)
		case rec.received.Sub(from) > lateLimit:
			o.fail("late", 1)
			o.note("%s: delivered %.1fs after it was due", rec.name, rec.received.Sub(from).Seconds())
		}
		if rec.extra > 0 {
			o.fail("duplicated", rec.extra)
			o.note("%s: delivered %d times too often", rec.name, rec.extra)
		}
	}
	r.led.mu.Lock()
	unknown, corrupt := r.led.unknown, r.led.corrupt
	r.led.mu.Unlock()
	o.fail("corrupt", corrupt)
	o.fail("unknown_deliveries", unknown)
	if corrupt > 0 || unknown > 0 {
		o.note("%d corrupt and %d unattributable deliveries", corrupt, unknown)
	}
	if r.in.sub != nil {
		o.fail("duplicates_suppressed", r.in.sub.DuplicatesSuppressed())
		o.fail("delivery_failures", int(r.in.srv.Engine().Stats()[subscriberName].Failures))
	}
	if p := r.in.poll; p != nil {
		p.mu.Lock()
		o.attempted += p.requests
		o.fail("http_failed", p.failed)
		seqs := append([]uint64(nil), p.seqs...)
		p.mu.Unlock()
		want := r.in.prep.head + 1
		for _, s := range seqs {
			if s != want {
				o.fail("seq_stream", 1)
				o.note("pull cursor saw seq %d where %d was next (hole or duplicate)", s, want)
				break
			}
			want++
		}
	}
	if planned {
		got, err := countRejects(filepath.Join(r.in.root, "quarantine", "_plan"))
		if err != nil {
			o.note("reject count: %v", err)
		} else if got != wantRejects {
			o.fail("reject_count", 1)
			o.note("plan rejected %d records, generator reference is %d", got, wantRejects)
		}
	}
	return o
}

// countRejects totals the reject records under a plan quarantine tree
// (one line per record; parse-error marker lines start with '#').
func countRejects(root string) (int, error) {
	n := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if errors.Is(err, fs.ErrNotExist) {
			return nil // no record was rejected
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".rejects") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if !strings.HasPrefix(sc.Text(), "#") {
				n++
			}
		}
		return sc.Err()
	})
	return n, err
}
