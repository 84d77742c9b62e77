package plan

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"bistro/internal/config"
	"bistro/internal/diskfault"
)

// compileOne builds a Set for a single feed declaring the given ops.
func compileOne(t *testing.T, opts Options, ops ...config.PlanOp) *Program {
	t.Helper()
	return compileFeed(t, opts, &config.Feed{
		Path: "F",
		Plan: &config.PlanSpec{Ops: ops},
	})
}

// compileFeed builds a Set for one fully-specified feed.
func compileFeed(t *testing.T, opts Options, f *config.Feed) *Program {
	t.Helper()
	cfg := &config.Config{Feeds: []*config.Feed{f}}
	set, err := Compile(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	p := set.For(f.Path)
	if p == nil {
		t.Fatalf("no program for %s", f.Path)
	}
	return p
}

// collectSinks buffers every output in memory.
type collectSinks struct {
	primary bytes.Buffer
	derived map[string]*bytes.Buffer
	reject  bytes.Buffer
}

func (c *collectSinks) sinks() Sinks {
	return Sinks{
		Primary: func() (io.Writer, error) { return &c.primary, nil },
		Derived: func(feed string) (io.Writer, error) {
			if c.derived == nil {
				c.derived = make(map[string]*bytes.Buffer)
			}
			b := &bytes.Buffer{}
			c.derived[feed] = b
			return b, nil
		},
		Reject: func() (io.Writer, error) { return &c.reject, nil },
	}
}

func gzipBytes(t *testing.T, s string) []byte {
	t.Helper()
	var b bytes.Buffer
	zw := gzip.NewWriter(&b)
	io.WriteString(zw, s)
	zw.Close()
	return b.Bytes()
}

func TestByteOnlyDecompressSplit(t *testing.T) {
	p := compileOne(t, Options{},
		config.PlanOp{Kind: config.OpDecompress, Codec: "gzip"},
		config.PlanOp{Kind: config.OpSplit, Target: "RAW"},
	)
	var c collectSinks
	stats, err := p.Run(bytes.NewReader(gzipBytes(t, "a\nb\n")), c.sinks())
	if err != nil {
		t.Fatal(err)
	}
	if got := c.primary.String(); got != "a\nb\n" {
		t.Errorf("primary = %q", got)
	}
	if got := c.derived["RAW"].String(); got != "a\nb\n" {
		t.Errorf("split copy = %q", got)
	}
	if stats.Routed["RAW"] != 4 {
		t.Errorf("routed bytes = %d, want 4", stats.Routed["RAW"])
	}
}

// byteCounter is a sink with no ReadFrom, so a copy into it cannot
// borrow a buffer from its destination.
type byteCounter struct{ n int64 }

func (c *byteCounter) Write(b []byte) (int, error) {
	c.n += int64(len(b))
	return len(b), nil
}

// TestByteOnlyPlanAllocatesNoCopyBuffer: a byte-only plan copies a
// staged file through diskfault.Copy's pooled buffer, not a fresh
// 32 KiB one per file (io.Copy from a file falls back to one).
func TestByteOnlyPlanAllocatesNoCopyBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random")
	}
	src := filepath.Join(t.TempDir(), "in")
	if err := os.WriteFile(src, bytes.Repeat([]byte("x"), 1<<20), 0o644); err != nil {
		t.Fatal(err)
	}
	p := compileOne(t, Options{})
	var out byteCounter
	run := func() {
		f, err := diskfault.OS().Open(src)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		out.n = 0
		if _, err := p.Run(f, Sinks{Primary: func() (io.Writer, error) { return &out, nil }}); err != nil {
			t.Fatal(err)
		}
		if out.n != 1<<20 {
			t.Fatalf("copied %d bytes, want %d", out.n, 1<<20)
		}
	}
	run() // the pool's buffer
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perFile := float64(after.TotalAlloc-before.TotalAlloc) / runs
	objects := testing.AllocsPerRun(runs, run)
	t.Logf("1 MiB byte-only plan: %.0f bytes, %.0f objects allocated per file", perFile, objects)
	if perFile >= 8<<10 {
		t.Errorf("a byte-only plan over a 1 MiB file allocated %.0f bytes, want < 8 KiB", perFile)
	}
}

func TestValidateRejects(t *testing.T) {
	p := compileOne(t, Options{},
		config.PlanOp{Kind: config.OpParse, Framing: "csv"},
		config.PlanOp{Kind: config.OpValidate, Rules: []config.PlanRule{{Kind: "columns", Count: 2}}},
		config.PlanOp{Kind: config.OpExtract, Field: "n", Column: 2},
		config.PlanOp{Kind: config.OpValidate, Rules: []config.PlanRule{{Kind: "numeric", Field: "n"}}},
	)
	var c collectSinks
	stats, err := p.Run(strings.NewReader("a,1\nb\nc,xyz\nd,4\n"), c.sinks())
	if err != nil {
		t.Fatal(err)
	}
	if got := c.primary.String(); got != "a,1\nd,4\n" {
		t.Errorf("primary = %q", got)
	}
	rej := c.reject.String()
	if !strings.Contains(rej, "columns 1 (want 2)") || !strings.Contains(rej, "n not numeric") {
		t.Errorf("rejects = %q", rej)
	}
	if stats.Records != 4 || stats.Rejected != 2 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestRouteAndFirstRecordFields(t *testing.T) {
	p := compileOne(t, Options{},
		config.PlanOp{Kind: config.OpParse, Framing: "csv"},
		config.PlanOp{Kind: config.OpExtract, Field: "region", Column: 1},
		config.PlanOp{Kind: config.OpRoute, Field: "region",
			Cases:  []config.PlanRouteCase{{Value: "east", Target: "E"}},
			Target: "OTHER"},
	)
	var c collectSinks
	stats, err := p.Run(strings.NewReader("east,1\nwest,2\neast,3\n"), c.sinks())
	if err != nil {
		t.Fatal(err)
	}
	// Every record routed somewhere (default OTHER), so the primary is
	// created but empty — the deterministic "nothing stayed" statement.
	if c.primary.Len() != 0 {
		t.Errorf("primary = %q, want empty", c.primary.String())
	}
	if got := c.derived["E"].String(); got != "east,1\neast,3\n" {
		t.Errorf("E = %q", got)
	}
	if got := c.derived["OTHER"].String(); got != "west,2\n" {
		t.Errorf("OTHER = %q", got)
	}
	if stats.Routed["E"] != 2 || stats.Routed["OTHER"] != 1 {
		t.Errorf("routed = %v", stats.Routed)
	}
	if len(stats.Fields) != 1 || stats.Fields[0] != "east" {
		t.Errorf("first-record fields = %v", stats.Fields)
	}
}

func writeTable(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestEnrichJoinAndReload(t *testing.T) {
	dir := t.TempDir()
	table := writeTable(t, dir, "regions.csv", "east,us,low\nwest,eu,high\n")
	p := compileOne(t, Options{},
		config.PlanOp{Kind: config.OpParse, Framing: "csv"},
		config.PlanOp{Kind: config.OpExtract, Field: "region", Column: 1},
		config.PlanOp{Kind: config.OpEnrich, Field: "region", Table: table},
	)
	var c collectSinks
	if _, err := p.Run(strings.NewReader("east,1\nnone,2\n"), c.sinks()); err != nil {
		t.Fatal(err)
	}
	// Hit appends table values; miss passes through unchanged.
	if got := c.primary.String(); got != "east,1,us,low\nnone,2\n" {
		t.Errorf("primary = %q", got)
	}

	// Rewriting the table (new mtime/size) must be visible to the next
	// run without recompiling.
	time.Sleep(10 * time.Millisecond)
	writeTable(t, dir, "regions.csv", "none,zz,mid\n")
	var c2 collectSinks
	if _, err := p.Run(strings.NewReader("none,2\n"), c2.sinks()); err != nil {
		t.Fatal(err)
	}
	if got := c2.primary.String(); got != "none,2,zz,mid\n" {
		t.Errorf("primary after reload = %q", got)
	}
}

// statCounter counts the Stat calls made through it.
type statCounter struct {
	diskfault.FS
	stats int
}

func (s *statCounter) Stat(name string) (os.FileInfo, error) {
	s.stats++
	return s.FS.Stat(name)
}

// A run resolves its enrich table once, not once per record.
func TestEnrichStatsTableOncePerFile(t *testing.T) {
	table := writeTable(t, t.TempDir(), "regions.csv", "east,us\n")
	fs := &statCounter{FS: diskfault.OS()}
	p := compileOne(t, Options{FS: fs},
		config.PlanOp{Kind: config.OpParse, Framing: "csv"},
		config.PlanOp{Kind: config.OpExtract, Field: "region", Column: 1},
		config.PlanOp{Kind: config.OpEnrich, Field: "region", Table: table},
	)
	in := strings.Repeat("east,1\nwest,2\n", 500)
	var c collectSinks
	stats, err := p.Run(strings.NewReader(in), c.sinks())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 1000 || strings.Count(c.primary.String(), ",us\n") != 500 {
		t.Fatalf("%d records, %d enriched; want 1000 and 500", stats.Records, strings.Count(c.primary.String(), ",us\n"))
	}
	if fs.stats != 1 {
		t.Fatalf("1000 records stat the side table %d times, want 1", fs.stats)
	}
}

func TestJSONFraming(t *testing.T) {
	dir := t.TempDir()
	table := writeTable(t, dir, "hosts.csv", "h1,rack9\n")
	p := compileOne(t, Options{},
		config.PlanOp{Kind: config.OpParse, Framing: "json"},
		config.PlanOp{Kind: config.OpExtract, Field: "host", Key: "host"},
		config.PlanOp{Kind: config.OpEnrich, Field: "host", Table: table},
	)
	var c collectSinks
	stats, err := p.Run(strings.NewReader(
		`{"host":"h1","v":2}`+"\n"+"not json\n"), c.sinks())
	if err != nil {
		t.Fatal(err)
	}
	// Output re-marshals with sorted keys and the _enrich array.
	if got := c.primary.String(); got != `{"_enrich":["rack9"],"host":"h1","v":2}`+"\n" {
		t.Errorf("primary = %q", got)
	}
	if got := c.reject.String(); got != "not json\n" {
		t.Errorf("reject = %q", got)
	}
	if stats.Records != 1 {
		t.Errorf("records = %d", stats.Records)
	}
}

func TestDeliveryTransform(t *testing.T) {
	dir := t.TempDir()
	table := writeTable(t, dir, "t.csv", "east,us\n")
	atIngest := compileOne(t, Options{},
		config.PlanOp{Kind: config.OpParse, Framing: "csv"},
		config.PlanOp{Kind: config.OpExtract, Field: "r", Column: 1},
	)
	if atIngest.DeliveryTransform() != nil {
		t.Fatal("plan without at-delivery enrich must have nil transform")
	}
	p := compileOne(t, Options{},
		config.PlanOp{Kind: config.OpParse, Framing: "csv"},
		config.PlanOp{Kind: config.OpExtract, Field: "r", Column: 1},
		config.PlanOp{Kind: config.OpEnrich, Field: "r", Table: table, AtDelivery: true},
	)
	// The ingest half leaves the staged file lean.
	var c collectSinks
	if _, err := p.Run(strings.NewReader("east,1\n"), c.sinks()); err != nil {
		t.Fatal(err)
	}
	if got := c.primary.String(); got != "east,1\n" {
		t.Errorf("staged = %q, want lean records", got)
	}
	// The delivery half joins per push.
	tr := p.DeliveryTransform()
	if tr == nil {
		t.Fatal("nil delivery transform")
	}
	out, err := tr(c.primary.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "east,1,us\n" {
		t.Errorf("transformed = %q", string(out))
	}
}

func TestOversizeRecordRejects(t *testing.T) {
	p := compileOne(t, Options{},
		config.PlanOp{Kind: config.OpParse, Framing: "lines"},
	)
	// The oversized record must reject without failing the file — a
	// poison deposit must not wedge its source's shard — and the
	// records around it must still frame.
	in := "before\n" + strings.Repeat("x", maxRecordBytes+1) + "\nafter\n"
	var c collectSinks
	stats, err := p.Run(strings.NewReader(in), c.sinks())
	if err != nil {
		t.Fatalf("oversize record failed the file: %v", err)
	}
	if got := c.primary.String(); got != "before\nafter\n" {
		t.Errorf("primary = %q, want surrounding records", got)
	}
	if !strings.Contains(c.reject.String(), "record exceeds") {
		t.Errorf("reject = %q, want oversize marker", c.reject.String())
	}
	if stats.Records != 2 {
		t.Errorf("records = %d, want 2", stats.Records)
	}
}

func TestOversizeRecordAtEOFRejects(t *testing.T) {
	p := compileOne(t, Options{},
		config.PlanOp{Kind: config.OpParse, Framing: "lines"},
	)
	var c collectSinks
	if _, err := p.Run(strings.NewReader(strings.Repeat("x", maxRecordBytes+1)), c.sinks()); err != nil {
		t.Fatalf("unterminated oversize record failed the file: %v", err)
	}
	if !strings.Contains(c.reject.String(), "record exceeds") {
		t.Errorf("reject = %q, want oversize marker", c.reject.String())
	}
}

func TestFieldsFromFirstSurvivingRecord(t *testing.T) {
	ops := []config.PlanOp{
		{Kind: config.OpParse, Framing: "csv"},
		{Kind: config.OpExtract, Field: "n", Column: 2},
		{Kind: config.OpValidate, Rules: []config.PlanRule{{Kind: "numeric", Field: "n"}}},
	}
	// The first record rejects; naming fields must come from the first
	// record that survives validate.
	p := compileOne(t, Options{}, ops...)
	var c collectSinks
	stats, err := p.Run(strings.NewReader("a,bad\nb,7\n"), c.sinks())
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Fields) != 1 || stats.Fields[0] != "7" {
		t.Errorf("fields = %v, want [7]", stats.Fields)
	}

	// No survivors at all: each extract falls back to an empty string
	// so normalize templates still render deterministically.
	var c2 collectSinks
	stats, err = p.Run(strings.NewReader("a,bad\n"), c2.sinks())
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Fields) != 1 || stats.Fields[0] != "" {
		t.Errorf("fallback fields = %v, want [\"\"]", stats.Fields)
	}
}

func TestEnrichTableErrorDegradesAtIngest(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "absent.csv")
	p := compileOne(t, Options{},
		config.PlanOp{Kind: config.OpParse, Framing: "csv"},
		config.PlanOp{Kind: config.OpExtract, Field: "r", Column: 1},
		config.PlanOp{Kind: config.OpEnrich, Field: "r", Table: missing},
	)
	// A broken side table must not fail the file (that would wedge the
	// shard); records pass through un-enriched.
	var c collectSinks
	if _, err := p.Run(strings.NewReader("east,1\n"), c.sinks()); err != nil {
		t.Fatalf("table error failed the file: %v", err)
	}
	if got := c.primary.String(); got != "east,1\n" {
		t.Errorf("primary = %q, want un-enriched record", got)
	}
}

func TestDeliveryTransformTableErrorFailsPush(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "absent.csv")
	p := compileOne(t, Options{},
		config.PlanOp{Kind: config.OpParse, Framing: "csv"},
		config.PlanOp{Kind: config.OpExtract, Field: "r", Column: 1},
		config.PlanOp{Kind: config.OpEnrich, Field: "r", Table: missing, AtDelivery: true},
	)
	// At delivery the same breakage fails only the push — visible and
	// retryable once the operator repairs the table.
	if _, err := p.DeliveryTransform()([]byte("east,1\n")); err == nil {
		t.Fatal("expected delivery transform error for missing table")
	}
}

func TestDeliveryTransformGzipFeed(t *testing.T) {
	dir := t.TempDir()
	table := writeTable(t, dir, "t.csv", "east,us\n")
	p := compileFeed(t, Options{}, &config.Feed{
		Path:     "F",
		Compress: config.CompressGzip,
		Plan: &config.PlanSpec{Ops: []config.PlanOp{
			{Kind: config.OpParse, Framing: "csv"},
			{Kind: config.OpExtract, Field: "r", Column: 1},
			{Kind: config.OpEnrich, Field: "r", Table: table, AtDelivery: true},
		}},
	})
	// The server stages gzip-wrapped lean records for a `compress
	// gzip` feed; the transform must gunzip, join, and re-gzip so the
	// subscriber still receives the feed's declared encoding.
	out, err := p.DeliveryTransform()(gzipBytes(t, "east,1\n"))
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(out))
	if err != nil {
		t.Fatalf("transformed output is not gzip: %v", err)
	}
	plain, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if string(plain) != "east,1,us\n" {
		t.Errorf("transformed = %q, want enriched record", string(plain))
	}
}
