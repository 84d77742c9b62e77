//go:build linux

package benchmark

import (
	"sort"
	"strings"
	"time"
)

// streamThreshold mirrors the server's default StreamThreshold: files
// at or above it take the chunked streaming delivery path.
const streamThreshold = 4 << 20

// perLayer derives the per-layer metrics of a traced run from the
// three outside sources — the seams the server exposes (FS wrapper,
// client clocks, delivery events, registry reads), the layer walk, and
// process counters — and assembles the paced phase's span trees.
func (r *runner) perLayer(recs []fileRec, paced, sat window, e e2e, orc oracleOut, origin time.Time) (map[string]float64, []Span, error) {
	t := r.taps
	v := make(map[string]float64)
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// Counts over the accounting window (middle half of the saturated
	// phase). Ingest-side figures are per deposit acked in the window,
	// delivery-side ones per deposit delivered in it.
	tw := window{start: sat.tappedStart, end: sat.tappedEnd}
	tw.count(recs)
	acked, ackedBytes := float64(tw.acked), float64(tw.ackedBytes)
	var fs [numTrees]TreeStats
	var all TreeStats
	var allFsyncUs []float64
	for i := range fs {
		fs[i] = t.fsClose[i].since(t.fsOpen[i])
		all.BytesW += fs[i].BytesW
		all.BytesR += fs[i].BytesR
		all.Fsyncs += fs[i].Fsyncs
		all.BusyNs += fs[i].BusyNs
		allFsyncUs = append(allFsyncUs, fs[i].FsyncUs...)
	}
	v["landing.write_us_per_file"] = div(float64(fs[TreeLanding].WriteNs)/1e3, acked)
	v["landing.bytes_written_per_payload_byte"] = div(float64(fs[TreeLanding].BytesW), ackedBytes)
	v["normalize.fsyncs_per_file"] = div(float64(fs[TreeStaging].Fsyncs), acked)
	v["plan.staged_bytes_per_payload_byte"] = div(float64(fs[TreeStaging].BytesW), ackedBytes)
	v["receipts.wal_fsyncs_per_file"] = div(float64(fs[TreeReceipts].Fsyncs), acked)
	v["receipts.wal_bytes_per_file"] = div(float64(fs[TreeReceipts].BytesW), acked)
	v["receipts.fsync_us_p50"] = percentile(fs[TreeReceipts].FsyncUs, 50)
	v["delivery.staging_read_bytes_per_payload_byte"] = div(float64(fs[TreeStaging].BytesR), float64(tw.bytes))
	v["diskfault.fsyncs_per_file"] = div(float64(all.Fsyncs), acked)
	v["diskfault.bytes_written_per_payload_byte"] = div(float64(all.BytesW), ackedBytes)
	v["diskfault.bytes_read_per_payload_byte"] = div(float64(all.BytesR), ackedBytes)
	v["diskfault.fsync_us_p50"] = percentile(allFsyncUs, 50)
	v["diskfault.busy_share"] = div(float64(all.BusyNs), float64(tw.end.Sub(tw.start)))

	// Registry deltas over the same window.
	reg := func(name string, labels map[string]string) (float64, int64) {
		return regDelta(t.regOpen, t.regClose, name, labels)
	}
	batchSum, batchN := reg("bistro_receipts_group_batch_size", nil)
	v["receipts.group_batch_mean"] = div(batchSum, float64(batchN))
	commits, _ := reg("bistro_receipts_commits_total", nil)
	ingested, _ := reg("bistro_ingest_files_total", nil)
	v["receipts.delivery_commits_per_file"] = div(commits-ingested, float64(tw.files))
	blocked, _ := reg("bistro_ingest_handoff_blocked_total", nil)
	v["ingest.handoff_blocked_per_kfile"] = div(blocked*1000, ingested)
	tried, _ := reg("bistro_classifier_patterns_tried_total", nil)
	v["classifier.patterns_tried_per_file"] = div(tried, ingested)
	ops := []string{"decompress", "parse", "validate", "extract", "enrich", "route"}
	opSecs := make([]float64, len(ops))
	var opTotal float64
	for i, op := range ops {
		opSecs[i], _ = reg("bistro_plan_op_seconds", map[string]string{"op": op})
		opTotal += opSecs[i]
	}
	for i, op := range ops {
		v["plan.op_share."+op] = div(opSecs[i], opTotal)
	}
	if opTotal > 0 { // a plan ran
		v["plan.fsyncs_per_file"] = div(float64(fs[TreeStaging].Fsyncs+fs[TreeQuarantine].Fsyncs), acked)
	}
	// Retries and failures are judged over the whole life of the server.
	v["delivery.retries"] = t.regClose["bistro_delivery_retries_total"].Value
	v["delivery.failures"], _ = regDelta(nil, t.regClose, "bistro_delivery_failures_total", nil)

	t.mu.Lock()
	v["ingest.queue_depth_mean"] = div(t.ingestDepthSum, float64(t.samples))
	v["scheduler.queue_depth_mean"] = div(t.schedDepthSum, float64(t.samples))
	v["server.goroutines_peak"] = float64(t.goroutinesPeak)
	t.mu.Unlock()

	// Pull consumer clocks.
	if p := r.in.poll; p != nil {
		polls := float64(t.pollEnd.polls - t.pollOpen.polls)
		v["httpfeed.polls_per_s"] = div(polls, t.pollEnd.at.Sub(t.pollOpen.at).Seconds())
		v["httpfeed.bytes_per_poll"] = div(float64(t.pollEnd.pollBytes-t.pollOpen.pollBytes), polls)
		v["httpfeed.not_modified_share"] = div(float64(t.pollEnd.notModified-t.pollOpen.notModified), polls)
		p.mu.Lock()
		v["httpfeed.tail_page_ms_p50"] = percentile(p.pageMs, 50)
		v["httpfeed.content_get_ms_per_mb"] = div(p.contentMs, p.contentMB)
		p.mu.Unlock()
	}

	// Paced-phase delivery breakdown from the client-side clocks.
	var a2r, r2r []float64
	var inlineMs, inlineMB, streamMs, streamMB float64
	for i := range recs {
		rec := &recs[i]
		if rec.phase != phasePaced || rec.acked.IsZero() || rec.received.IsZero() || r.w.HTTP {
			continue
		}
		d := max(rec.arrived.Sub(rec.acked), 0)
		a2r = append(a2r, msOf(d))
		if !rec.receipt.IsZero() {
			r2r = append(r2r, msOf(max(rec.receipt.Sub(rec.received), 0)))
		}
		if rec.size >= streamThreshold {
			streamMs += msOf(d)
			streamMB += float64(rec.size) / 1e6
		} else {
			inlineMs += msOf(d)
			inlineMB += float64(rec.size) / 1e6
		}
	}
	v["delivery.ack_to_received_ms_p50"] = percentile(a2r, 50)
	v["delivery.received_to_receipt_ms_p50"] = percentile(r2r, 50)
	v["delivery.inline_ms_per_mb"] = div(inlineMs, inlineMB)
	v["delivery.stream_ms_per_mb"] = div(streamMs, streamMB)

	// Informational whole-run figures.
	v["server.start_ms"] = msOf(r.in.startDur)
	v["server.reconcile_ms"] = msOf(r.in.reconcileDur)
	v["archive.expire_ms_per_kfile"] = div(msOf(r.in.prep.expire), float64(r.w.Expired)/1000)
	v["server.deposit_ack_p50_ms"] = percentile(e.ackMs, 50)
	v["server.deposit_ack_p95_ms"] = percentile(e.ackMs, 95)
	v["server.deposit_ack_p99_ms"] = percentile(e.ackMs, 99)
	v["server.propagation_p50_ms"] = percentile(e.propMs, 50)
	v["server.propagation_p95_ms"] = percentile(e.propMs, 95)
	v["server.propagation_p99_ms"] = percentile(e.propMs, 99)
	v["server.cpu_s_per_gb"] = div(sat.cpu, float64(sat.bytes)/1e9)
	v["server.cpu_ms_per_file"] = div(sat.cpu*1000, float64(sat.files))
	v["server.files_per_s_mean"] = e.filesPerSMean
	v["server.ingest_files_per_s"] = div(float64(sat.acked), sat.length.Seconds())
	v["server.backlog_end"] = float64(paced.backlogEnd)
	v["server.gc_pause_ms"] = msOf(gcPauseTotal() - t.gcPause0)
	v["server.failed_share"] = div(float64(orc.failed), float64(orc.attempted))
	v["gen.late_p99_ms"] = percentile(e.lateMs, 99)

	// Tracing overhead: throughput of the tapped middle half against
	// the untapped outer quarters of the same saturated phase.
	outer := window{start: sat.start, end: sat.end}
	outer.count(recs)
	untapped := div(float64(outer.files-tw.files), (sat.length - tw.end.Sub(tw.start)).Seconds())
	tapped := div(float64(tw.files), tw.end.Sub(tw.start).Seconds())
	if untapped > 0 {
		v["trace.overhead_share"] = 1 - tapped/untapped
	}

	spans := r.spans(recs, origin)
	byStage, rootTotal := stageSelfTimes(spans)
	var stageTotal int64
	for _, ns := range byStage {
		stageTotal += ns
	}
	v["trace.coverage"] = div(float64(stageTotal), float64(rootTotal))

	if err := r.layerWalk(v); err != nil {
		return nil, nil, err
	}
	return v, spans, nil
}

// spans builds one span tree per paced-phase file: root "file" (due →
// delivery receipt) with children source.upload (itself parent of the
// fs.landing, fs.staging and shared fs.wal intervals the FS wrapper
// saw) and the delivery stages measured by the consumer's clocks.
func (r *runner) spans(recs []fileRec, origin time.Time) []Span {
	landing := make(map[string]fsSpan)
	staging := make(map[string]fsSpan)
	var wal []fsSpan
	for _, sp := range r.taps.pacedSpans {
		switch sp.Tree {
		case TreeLanding:
			landing[sp.Key] = sp
		case TreeStaging:
			// A plan stages several outputs per deposit; one span covers
			// them all.
			name := sp.Key
			if i := strings.Index(name, "/src"); i >= 0 {
				name = name[i+1:]
			}
			if prev, ok := staging[name]; ok {
				if prev.Start.Before(sp.Start) {
					sp.Start = prev.Start
				}
				if prev.End.After(sp.End) {
					sp.End = prev.End
				}
			}
			staging[name] = sp
		case TreeReceipts:
			wal = append(wal, sp)
		}
	}
	sort.Slice(wal, func(i, j int) bool { return wal[i].End.Before(wal[j].End) })

	tr := &tracer{origin: origin}
	for i := range recs {
		rec := &recs[i]
		if rec.phase != phasePaced || rec.acked.IsZero() || rec.received.IsZero() {
			continue
		}
		end := rec.received
		if !rec.receipt.IsZero() {
			end = rec.receipt
		}
		root := tr.add(0, rec.k, "file", rec.due, end, 0)
		up := tr.add(root, rec.k, "source.upload", rec.started, rec.acked, 0)
		if sp, ok := landing[rec.name]; ok {
			tr.add(up, rec.k, "fs.landing", sp.Start, sp.End, 0)
		}
		committed := rec.started
		if sp, ok := staging[rec.name]; ok {
			tr.add(up, rec.k, "fs.staging", sp.Start, sp.End, 0)
			committed = sp.End
		}
		// The arrival's group commit is the last WAL flush that ended
		// before the source saw its ack and began after the file was
		// staged; every file of the batch links to the same flush.
		j := sort.Search(len(wal), func(j int) bool { return wal[j].End.After(rec.acked) }) - 1
		if j >= 0 && !wal[j].Start.Before(committed) {
			tr.add(up, rec.k, "fs.wal", wal[j].Start, wal[j].End, j+1)
		}
		if r.w.HTTP {
			tr.add(root, rec.k, "http.ack_to_fetched", rec.acked, rec.received, 0)
			continue
		}
		tr.add(root, rec.k, "delivery.ack_to_received", rec.acked, rec.received, 0)
		if !rec.receipt.IsZero() {
			tr.add(root, rec.k, "delivery.received_to_receipt", rec.received, rec.receipt, 0)
		}
	}
	return tr.spans
}
