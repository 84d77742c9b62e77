// Package plan compiles and executes per-feed ingestion plans: small
// operator DAGs declared in a feed's plan {} config block and run
// streaming inside the sharded ingest workers (INGESTBASE-style
// declarative ingestion; the enrich operator's ingest/delivery
// placement is IDEA's central tradeoff, measured in E20).
//
// A compiled Program reads one landing file and produces:
//
//   - a primary output (the records that stayed in the feed),
//   - zero or more derived outputs (split tees and route matches),
//     which the server stages and records like any other arrival, and
//   - an optional reject stream (validate failures), which the server
//     lands in the quarantine tree.
//
// Compilation happens once per config load; execution allocates per
// file, never per config. Side tables are cached process-wide and
// reloaded when the backing file changes (mtime/size, checked once per
// file run), so enrichment never does per-record I/O.
package plan

import (
	"bufio"
	"compress/bzip2"
	"compress/gzip"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"bistro/internal/config"
	"bistro/internal/diskfault"
	"bistro/internal/metrics"
)

// maxRecordBytes bounds one framed record; longer records reject
// rather than ballooning worker memory.
const maxRecordBytes = 1 << 20

// errRecordTooLong marks a framed record longer than maxRecordBytes;
// runRecords rejects it (a marker line, not the record — quarantining
// megabytes of unframeable bytes helps nobody) instead of failing the
// file, which would wedge the source's shard in a retry loop.
var errRecordTooLong = errors.New("record too long")

// Metrics holds the plan engine's instrumentation. Nil (or any nil
// field) disables that series at no hot-path cost.
type Metrics struct {
	// Records counts records (or whole files, for byte-stage ops)
	// flowing out of each operator, labeled feed and op.
	Records *metrics.CounterVec
	// Bytes counts bytes written to each output class, labeled feed
	// and output (primary, derived, reject).
	Bytes *metrics.CounterVec
	// Errors counts per-operator failures: validate rejects, enrich
	// table misses and load errors, unparseable records.
	Errors *metrics.CounterVec
	// OpSeconds observes per-file time spent inside each operator.
	OpSeconds *metrics.HistogramVec
}

// NewMetrics registers the plan metric families on r using the
// canonical names catalogued in docs/OBSERVABILITY.md.
func NewMetrics(r *metrics.Registry) *Metrics {
	return &Metrics{
		Records: r.CounterVec("bistro_plan_records_total",
			"Records emitted by each plan operator.", "feed", "op"),
		Bytes: r.CounterVec("bistro_plan_bytes_total",
			"Bytes written by plan execution per output class.", "feed", "output"),
		Errors: r.CounterVec("bistro_plan_errors_total",
			"Plan operator failures (rejects, enrich misses, parse errors).", "feed", "op"),
		OpSeconds: r.HistogramVec("bistro_plan_op_seconds",
			"Per-file time spent inside each plan operator.", nil, "feed", "op"),
	}
}

// Options configure compilation.
type Options struct {
	// FS is the filesystem seam used to load side tables (nil = the
	// real filesystem).
	FS diskfault.FS
	// Root anchors relative side-table paths (the server base dir).
	Root string
	// Metrics, when non-nil, receives plan instrumentation.
	Metrics *Metrics
}

// Set holds every compiled plan in a config, keyed by feed path.
type Set struct {
	progs  map[string]*Program
	tables *tableCache
}

// Compile builds executable programs for every feed carrying a plan
// block. Config resolve already type-checked operator wiring and
// rejected cycles, so errors here indicate a config constructed
// outside Parse.
func Compile(cfg *config.Config, opts Options) (*Set, error) {
	if opts.FS == nil {
		opts.FS = diskfault.OS()
	}
	s := &Set{
		progs:  make(map[string]*Program),
		tables: newTableCache(opts.FS),
	}
	for _, f := range cfg.Feeds {
		if f.Plan == nil {
			continue
		}
		p, err := compileProgram(f, opts, s.tables)
		if err != nil {
			return nil, err
		}
		s.progs[f.Path] = p
	}
	return s, nil
}

// For returns the compiled program for a feed path, or nil when the
// feed keeps the implicit default plan.
func (s *Set) For(feed string) *Program {
	if s == nil {
		return nil
	}
	return s.progs[feed]
}

// Len reports how many feeds carry explicit plans.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	return len(s.progs)
}

// Program is one feed's compiled plan.
type Program struct {
	feed    string
	ops     []config.PlanOp
	framing string // "", "lines", "csv", "json"
	tables  *tableCache
	metrics *Metrics
	// gzipOut mirrors the feed's `compress gzip` setting: the server
	// gzip-wraps staged plan output, so the delivery transform must
	// gunzip before re-framing and re-gzip its result.
	gzipOut bool
	// delivery marks the sub-program DeliveryTransform runs per push;
	// its metrics are scoped under delivery_* labels so fan-out does
	// not inflate the ingest-side operator counters.
	delivery bool

	// deliveryEnrich is set when the plan defers its enrich join to
	// the delivery engine; DeliveryTransform exposes it.
	deliveryEnrich *config.PlanOp
	// extracts lists the extract ops, needed again at delivery time to
	// recompute the join key from record content.
	extracts []config.PlanOp
	// deliveryFn is the per-push transform built once at compile time
	// (nil when the plan does all its work at ingest).
	deliveryFn func([]byte) ([]byte, error)
}

func compileProgram(f *config.Feed, opts Options, tables *tableCache) (*Program, error) {
	p := &Program{
		feed:    f.Path,
		tables:  tables,
		metrics: opts.Metrics,
		gzipOut: f.Compress == config.CompressGzip,
	}
	for _, op := range f.Plan.Ops {
		op := op
		switch op.Kind {
		case config.OpParse:
			p.framing = op.Framing
		case config.OpExtract:
			p.extracts = append(p.extracts, op)
		case config.OpEnrich:
			op.Table = absTable(opts.Root, op.Table)
			if op.AtDelivery {
				p.deliveryEnrich = &op
				continue // not executed at ingest
			}
		}
		p.ops = append(p.ops, op)
	}
	p.deliveryFn = p.buildDeliveryTransform()
	return p, nil
}

// absTable anchors a relative side-table path at the server base dir.
func absTable(root, table string) string {
	if root == "" || filepath.IsAbs(table) {
		return table
	}
	return filepath.Join(root, filepath.FromSlash(table))
}

// Feed returns the owning feed path.
func (p *Program) Feed() string { return p.feed }

// Ops returns the operator chain executed at ingest (delivery-placed
// enrich excluded), for dry-run display.
func (p *Program) Ops() []config.PlanOp { return p.ops }

// Targets returns every derived feed this program can write.
func (p *Program) Targets() []string {
	spec := config.PlanSpec{Ops: p.ops}
	return spec.Targets()
}

// Stats summarizes one execution.
type Stats struct {
	// Records is how many records the parse stage framed (0 for
	// byte-only plans).
	Records int
	// Rejected is how many records validate sent to the reject output.
	Rejected int
	// Routed maps derived feed → records (or, for split tees, bytes
	// copied) sent there.
	Routed map[string]int
	// Fields holds the extracted values of the first record that
	// survived validate, in extract declaration order; the server
	// appends them to the file's pattern.Fields strings so normalize
	// templates can consume them. When no record survives (every
	// record rejected, or the file was empty), each extract
	// contributes an empty string so naming stays deterministic.
	Fields []string
}

// Sinks supplies lazily-created outputs for one execution. Each
// function is called at most once per destination; the writers stay
// open until Run returns. Reject may be nil when the plan has no
// validate operator.
type Sinks struct {
	// Primary opens the feed's own staged output.
	Primary func() (io.Writer, error)
	// Derived opens the staged output for one derived feed.
	Derived func(feed string) (io.Writer, error)
	// Reject opens the quarantine stream for validate failures.
	Reject func() (io.Writer, error)
}

// Run executes the plan over one input stream. It is safe for
// concurrent use across files (Program is immutable; per-file state
// lives in the execution).
func (p *Program) Run(in io.Reader, sinks Sinks) (Stats, error) {
	e := &execution{prog: p, sinks: sinks, stats: Stats{Routed: make(map[string]int)}}
	err := e.run(in)
	e.observe()
	return e.stats, err
}

// execution is the per-file state of one Run.
type execution struct {
	prog  *Program
	sinks Sinks
	stats Stats

	primary io.Writer
	derived map[string]io.Writer
	reject  io.Writer

	// csv writers are buffered per output; flushed before Run returns.
	csvOut map[io.Writer]*csv.Writer

	// fieldsSet reports that stats.Fields already holds a surviving
	// record's extracts.
	fieldsSet bool

	opTime map[string]time.Duration

	// tables holds each enrich table as this run resolved it: one Stat
	// per table per file, not per record, so a table rewritten mid-file
	// takes effect from the next file.
	tables map[string]resolvedTable
}

// resolvedTable is a side table, or why it could not be loaded.
type resolvedTable struct {
	t   *sideTable
	err error
}

// table resolves an enrich table the first time this run needs it.
func (e *execution) table(path string) (*sideTable, error) {
	r, ok := e.tables[path]
	if !ok {
		r.t, r.err = e.prog.tables.resolve(path)
		if e.tables == nil {
			e.tables = make(map[string]resolvedTable)
		}
		e.tables[path] = r
	}
	return r.t, r.err
}

// opLabel scopes operator metric labels: the delivery-transform
// sub-program counts under delivery_* so per-push fan-out does not
// inflate the feed's ingest-side series.
func (e *execution) opLabel(op string) string {
	if e.prog.delivery {
		return "delivery_" + op
	}
	return op
}

func (e *execution) timeOp(op string, since time.Time) {
	if e.prog.metrics == nil || e.prog.metrics.OpSeconds == nil {
		return
	}
	if e.opTime == nil {
		e.opTime = make(map[string]time.Duration)
	}
	e.opTime[e.opLabel(op)] += time.Since(since)
}

func (e *execution) observe() {
	m := e.prog.metrics
	if m == nil {
		return
	}
	if m.OpSeconds != nil {
		for op, d := range e.opTime {
			m.OpSeconds.With(e.prog.feed, op).Observe(d.Seconds())
		}
	}
}

func (e *execution) countRecord(op string) {
	if m := e.prog.metrics; m != nil && m.Records != nil {
		m.Records.With(e.prog.feed, e.opLabel(op)).Inc()
	}
}

func (e *execution) countError(op string) {
	if m := e.prog.metrics; m != nil && m.Errors != nil {
		m.Errors.With(e.prog.feed, e.opLabel(op)).Inc()
	}
}

func (e *execution) countBytes(output string, n int) {
	if e.prog.delivery {
		output = "delivery"
	}
	if m := e.prog.metrics; m != nil && m.Bytes != nil && n > 0 {
		m.Bytes.With(e.prog.feed, output).Add(int64(n))
	}
}

func (e *execution) primaryOut() (io.Writer, error) {
	if e.primary == nil {
		w, err := e.sinks.Primary()
		if err != nil {
			return nil, err
		}
		e.primary = w
	}
	return e.primary, nil
}

func (e *execution) derivedOut(feed string) (io.Writer, error) {
	if w, ok := e.derived[feed]; ok {
		return w, nil
	}
	w, err := e.sinks.Derived(feed)
	if err != nil {
		return nil, err
	}
	if e.derived == nil {
		e.derived = make(map[string]io.Writer)
	}
	e.derived[feed] = w
	return w, nil
}

func (e *execution) rejectOut() (io.Writer, error) {
	if e.reject == nil {
		if e.sinks.Reject == nil {
			return nil, fmt.Errorf("plan: feed %s: no reject sink", e.prog.feed)
		}
		w, err := e.sinks.Reject()
		if err != nil {
			return nil, err
		}
		e.reject = w
	}
	return e.reject, nil
}

func (e *execution) run(in io.Reader) error {
	p := e.prog
	// Byte stage: decompress, then tee into split targets.
	r := in
	for _, op := range p.ops {
		switch op.Kind {
		case config.OpDecompress:
			start := time.Now()
			switch op.Codec {
			case "gzip":
				zr, err := gzip.NewReader(r)
				if err != nil {
					return fmt.Errorf("plan: feed %s: gzip: %w", p.feed, err)
				}
				defer zr.Close()
				r = zr
			case "bzip2":
				r = bzip2.NewReader(r)
			}
			e.timeOp("decompress", start)
			e.countRecord("decompress")
		case config.OpSplit:
			w, err := e.derivedOut(op.Target)
			if err != nil {
				return err
			}
			r = io.TeeReader(r, &countingWriter{w: w, exec: e, feed: op.Target})
			e.countRecord("split")
		}
	}
	if p.framing == "" {
		// Byte-only plan: copy the (decompressed, teed) stream to the
		// primary output.
		w, err := e.primaryOut()
		if err != nil {
			return err
		}
		n, err := diskfault.Copy(w, r)
		e.countBytes("primary", int(n))
		if err != nil {
			return fmt.Errorf("plan: feed %s: copy: %w", p.feed, err)
		}
		return nil
	}
	return e.runRecords(r)
}

// countingWriter tracks split tee volume per derived feed.
type countingWriter struct {
	w    io.Writer
	exec *execution
	feed string
}

func (cw *countingWriter) Write(b []byte) (int, error) {
	n, err := cw.w.Write(b)
	cw.exec.stats.Routed[cw.feed] += n
	cw.exec.countBytes("derived", n)
	return n, err
}

// record is one framed record in flight.
type record struct {
	// cols holds lines (1 col) / csv framing.
	cols []string
	// obj holds json framing.
	obj map[string]any
	// fields are the extracted named values.
	fields map[string]string
}

// runRecords frames the stream and pushes each record through the
// record-stage operators. An unparseable record (or tail) rejects
// rather than failing the file: a poisoned deposit must not wedge its
// source's shard in a retry loop.
func (e *execution) runRecords(r io.Reader) error {
	p := e.prog
	switch p.framing {
	case "csv":
		cr := csv.NewReader(r)
		cr.FieldsPerRecord = -1
		cr.ReuseRecord = false
		for {
			start := time.Now()
			cols, err := cr.Read()
			e.timeOp("parse", start)
			if err == io.EOF {
				break
			}
			if err != nil {
				e.countError("parse")
				if rerr := e.rejectLine(fmt.Sprintf("# parse error: %v", err)); rerr != nil {
					return rerr
				}
				continue
			}
			e.countRecord("parse")
			if err := e.process(&record{cols: cols}); err != nil {
				return err
			}
		}
	default: // lines, json
		br := bufio.NewReaderSize(r, 64*1024)
		for {
			line, err := readRecordLine(br)
			if err == io.EOF {
				break
			}
			if err == errRecordTooLong {
				e.countError("parse")
				if rerr := e.rejectLine(fmt.Sprintf("# parse error: record exceeds %d bytes", maxRecordBytes)); rerr != nil {
					return rerr
				}
				continue
			}
			if err != nil {
				return fmt.Errorf("plan: feed %s: scan: %w", p.feed, err)
			}
			rec := &record{}
			if p.framing == "json" {
				start := time.Now()
				var obj map[string]any
				jerr := json.Unmarshal([]byte(line), &obj)
				e.timeOp("parse", start)
				if jerr != nil {
					e.countError("parse")
					if rerr := e.rejectLine(line); rerr != nil {
						return rerr
					}
					continue
				}
				rec.obj = obj
			} else {
				rec.cols = []string{line}
			}
			e.countRecord("parse")
			if err := e.process(rec); err != nil {
				return err
			}
		}
	}
	if e.csvOut != nil {
		for _, cw := range e.csvOut {
			cw.Flush()
			if err := cw.Error(); err != nil {
				return fmt.Errorf("plan: feed %s: flush: %w", p.feed, err)
			}
		}
	}
	// When no record survived to donate naming fields (every record
	// rejected, or the file was empty), each extract falls back to an
	// empty string so normalize templates with extra %s slots still
	// render deterministically instead of erroring the arrival into a
	// retry loop.
	if !e.fieldsSet {
		for _, op := range p.ops {
			if op.Kind == config.OpExtract {
				e.stats.Fields = append(e.stats.Fields, "")
			}
		}
	}
	// The primary output exists even when every record routed away —
	// an empty staged file is a deterministic statement that the
	// arrival carried nothing for this feed.
	_, err := e.primaryOut()
	return err
}

// readRecordLine returns the next newline-delimited record, without
// its terminator (a trailing \r is stripped, matching bufio.Scanner's
// line framing; the final line needs no terminator). A record longer
// than maxRecordBytes is consumed to its end and reported as
// errRecordTooLong so the caller can reject it and keep framing the
// rest of the stream — bufio.Scanner would stop cold at ErrTooLong.
func readRecordLine(br *bufio.Reader) (string, error) {
	var buf []byte
	for {
		chunk, err := br.ReadSlice('\n')
		buf = append(buf, chunk...)
		switch err {
		case bufio.ErrBufferFull:
			if len(buf) > maxRecordBytes {
				return "", drainRecordLine(br)
			}
		case nil, io.EOF:
			if err == io.EOF && len(buf) == 0 {
				return "", io.EOF
			}
			line := strings.TrimSuffix(string(buf), "\n")
			line = strings.TrimSuffix(line, "\r")
			if len(line) > maxRecordBytes {
				return "", errRecordTooLong
			}
			return line, nil
		default:
			return "", err
		}
	}
}

// drainRecordLine consumes the remainder of an oversized line without
// buffering it.
func drainRecordLine(br *bufio.Reader) error {
	for {
		_, err := br.ReadSlice('\n')
		switch err {
		case bufio.ErrBufferFull:
			// keep draining
		case nil, io.EOF:
			return errRecordTooLong
		default:
			return err
		}
	}
}

// process runs one record through validate/extract/enrich/route and
// serializes it to its destination.
func (e *execution) process(rec *record) error {
	p := e.prog
	e.stats.Records++
	dest := "" // "" = primary
	// recFields accumulates this record's extracted values; they join
	// stats.Fields only if the record survives validate, so a rejected
	// first record cannot poison (or starve) the naming namespace.
	var recFields []string
	for _, op := range p.ops {
		switch op.Kind {
		case config.OpValidate:
			start := time.Now()
			reason, ok := validateRecord(rec, op.Rules)
			e.timeOp("validate", start)
			if !ok {
				e.countError("validate")
				e.stats.Rejected++
				return e.rejectRecord(rec, reason)
			}
			e.countRecord("validate")
		case config.OpExtract:
			start := time.Now()
			v := extractField(rec, op)
			if rec.fields == nil {
				rec.fields = make(map[string]string)
			}
			rec.fields[op.Field] = v
			e.timeOp("extract", start)
			e.countRecord("extract")
			recFields = append(recFields, v)
		case config.OpEnrich:
			start := time.Now()
			t, err := e.table(op.Table)
			var vals []string
			ok := false
			if err == nil {
				vals, ok = t.rows[rec.fields[op.Field]]
			}
			e.timeOp("enrich", start)
			switch {
			case err != nil && p.delivery:
				// At delivery a broken side table fails only this push
				// (visible in receipts/EvDeliveryFailed, retryable after
				// the operator repairs the table).
				return fmt.Errorf("plan: feed %s: enrich table %s: %w", p.feed, op.Table, err)
			case err != nil:
				// At ingest the same breakage must not wedge the shard
				// in a landing-file retry loop: degrade to un-enriched
				// records, counted like a miss.
				e.countError("enrich")
			case !ok:
				e.countError("enrich")
			default:
				enrichRecord(rec, vals)
				e.countRecord("enrich")
			}
		case config.OpRoute:
			start := time.Now()
			v := rec.fields[op.Field]
			matched := op.Target // default ("" = stay primary)
			for _, c := range op.Cases {
				if c.Value == v {
					matched = c.Target
					break
				}
			}
			e.timeOp("route", start)
			if matched != "" {
				dest = matched
				e.countRecord("route")
			}
		}
	}
	if !e.fieldsSet && len(recFields) > 0 {
		e.stats.Fields = recFields
		e.fieldsSet = true
	}
	var w io.Writer
	var err error
	output := "primary"
	if dest == "" {
		w, err = e.primaryOut()
	} else {
		w, err = e.derivedOut(dest)
		e.stats.Routed[dest]++
		output = "derived"
	}
	if err != nil {
		return err
	}
	return e.writeRecord(w, rec, output)
}

// validateRecord applies the rules; the first violated rule names the
// reject reason.
func validateRecord(rec *record, rules []config.PlanRule) (string, bool) {
	for _, r := range rules {
		switch r.Kind {
		case "columns":
			if len(rec.cols) != r.Count {
				return fmt.Sprintf("columns %d (want %d)", len(rec.cols), r.Count), false
			}
		case "utf8":
			for _, c := range rec.cols {
				if !utf8.ValidString(c) {
					return "invalid utf-8", false
				}
			}
		case "require":
			if rec.fields[r.Field] == "" {
				return fmt.Sprintf("missing %s", r.Field), false
			}
		case "numeric":
			if _, err := strconv.ParseInt(rec.fields[r.Field], 10, 64); err != nil {
				return fmt.Sprintf("%s not numeric", r.Field), false
			}
		}
	}
	return "", true
}

// extractField pulls the operator's source column/key out of a record.
func extractField(rec *record, op config.PlanOp) string {
	if rec.obj != nil {
		return jsonString(rec.obj[op.Key])
	}
	if op.Column >= 1 && op.Column <= len(rec.cols) {
		return rec.cols[op.Column-1]
	}
	return ""
}

// jsonString renders a JSON leaf value the way route cases and side
// tables expect to match it.
func jsonString(v any) string {
	switch t := v.(type) {
	case nil:
		return ""
	case string:
		return t
	case float64:
		return strconv.FormatFloat(t, 'g', -1, 64)
	case bool:
		return strconv.FormatBool(t)
	default:
		b, _ := json.Marshal(t)
		return string(b)
	}
}

// enrichRecord appends side-table values: extra columns for
// lines/csv framing, an "_enrich" array for json.
func enrichRecord(rec *record, vals []string) {
	if rec.obj != nil {
		arr := make([]any, len(vals))
		for i, v := range vals {
			arr[i] = v
		}
		rec.obj["_enrich"] = arr
		return
	}
	rec.cols = append(rec.cols, vals...)
}

// writeRecord serializes a record under the plan's framing. CSV
// output is normalized (encoding/csv quoting); JSON objects re-marshal
// with sorted keys — both deterministic, documented in docs/PLANS.md.
func (e *execution) writeRecord(w io.Writer, rec *record, output string) error {
	switch {
	case rec.obj != nil:
		b, err := json.Marshal(rec.obj)
		if err != nil {
			return fmt.Errorf("plan: feed %s: marshal: %w", e.prog.feed, err)
		}
		b = append(b, '\n')
		n, err := w.Write(b)
		e.countBytes(output, n)
		return err
	case e.prog.framing == "csv":
		if e.csvOut == nil {
			e.csvOut = make(map[io.Writer]*csv.Writer)
		}
		cw := e.csvOut[w]
		if cw == nil {
			counted := &outputCounter{w: w, exec: e, output: output}
			cw = csv.NewWriter(counted)
			e.csvOut[w] = cw
		}
		return cw.Write(rec.cols)
	default: // lines
		n, err := io.WriteString(w, rec.cols[0]+"\n")
		e.countBytes(output, n)
		return err
	}
}

// outputCounter attributes csv.Writer bytes to an output class.
type outputCounter struct {
	w      io.Writer
	exec   *execution
	output string
}

func (oc *outputCounter) Write(b []byte) (int, error) {
	n, err := oc.w.Write(b)
	oc.exec.countBytes(oc.output, n)
	return n, err
}

// rejectRecord writes a rejected record (with its reason as a
// comment) to the quarantine stream.
func (e *execution) rejectRecord(rec *record, reason string) error {
	var raw string
	switch {
	case rec.obj != nil:
		b, _ := json.Marshal(rec.obj)
		raw = string(b)
	case e.prog.framing == "csv":
		var sb strings.Builder
		cw := csv.NewWriter(&sb)
		cw.Write(rec.cols)
		cw.Flush()
		raw = strings.TrimSuffix(sb.String(), "\n")
	default:
		raw = rec.cols[0]
	}
	return e.rejectLine(fmt.Sprintf("%s\t# reject: %s", raw, reason))
}

func (e *execution) rejectLine(line string) error {
	w, err := e.rejectOut()
	if err != nil {
		return err
	}
	n, err := io.WriteString(w, line+"\n")
	e.countBytes("reject", n)
	return err
}
