//go:build linux

package benchmark

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"bistro/internal/diskfault"
)

// TestTakeCreditGivesUp pins that a credit window that never moves
// ends the closed loop instead of hanging it.
func TestTakeCreditGivesUp(t *testing.T) {
	window := make(chan struct{}, 1)
	if !takeCredit(window, time.Second) {
		t.Fatal("an empty window refused a credit")
	}
	start := time.Now()
	if takeCredit(window, 20*time.Millisecond) {
		t.Fatal("a full window that nothing drains granted a credit")
	}
	if waited := time.Since(start); waited < 20*time.Millisecond {
		t.Errorf("gave up after %v, before the timeout", waited)
	}
	go func() {
		time.Sleep(5 * time.Millisecond)
		<-window
	}()
	if !takeCredit(window, 5*time.Second) {
		t.Error("a window that drained in time refused a credit")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, w := range Workloads {
		sig := func(seed int64) string {
			g, err := NewGenerator(w.Name, seed)
			if err != nil {
				t.Fatal(err)
			}
			s := ""
			for k := 0; k < 40; k++ {
				f := g.File(k)
				if f.CRC != crcOf(f.Data) {
					t.Fatalf("%s: file %d carries CRC %08x, payload hashes to %08x", w.Name, k, f.CRC, crcOf(f.Data))
				}
				s += fmt.Sprintf("%s %d %08x\n", f.Name, len(f.Data), f.CRC)
			}
			return s
		}
		a, b, c := sig(7), sig(7), sig(8)
		if a != b {
			t.Errorf("%s: same seed produced different names, sizes or payloads", w.Name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 produced identical inputs", w.Name)
		}
	}
}

func TestLargePushMixesEqualBytes(t *testing.T) {
	g, err := NewGenerator("large_push", 3)
	if err != nil {
		t.Fatal(err)
	}
	var small, large int
	for k := 0; k < 10*largeBlock; k++ {
		switch n := len(g.File(k).Data); n {
		case mib:
			small += n
		case 16 * mib:
			large += n
		default:
			t.Fatalf("file %d has size %d", k, n)
		}
	}
	if small != large {
		t.Errorf("1 MiB files carry %d bytes, 16 MiB files %d; want equal", small, large)
	}
}

func TestPlanReferenceCounts(t *testing.T) {
	g, err := NewGenerator("plan_ingest", 5)
	if err != nil {
		t.Fatal(err)
	}
	ref := g.File(0).Ref
	if ref == nil || ref.East == 0 || ref.West == 0 || ref.Rejects == 0 {
		t.Fatalf("plan reference %+v must route to both feeds and reject some records", ref)
	}
	if got := ref.East + ref.West + ref.Rejects; got != planRecords {
		t.Errorf("reference accounts for %d records, file has %d", got, planRecords)
	}
}

func TestPercentileArithmetic(t *testing.T) {
	vals := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, tc := range []struct{ p, want float64 }{{50, 5}, {95, 10}, {90, 9}, {10, 1}, {100, 10}} {
		if got := percentile(vals, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := median(vals); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(vals); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of three = %v, %v, want 1, 3", q1, q3)
	}
	if got := spread(vals); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestWindowRates(t *testing.T) {
	// 2.5 s cut into two windows of 1.25 s; weights 1, 1, 2 and 4.
	at := []time.Duration{0, 1249 * time.Millisecond, 1250 * time.Millisecond, 2499 * time.Millisecond, 2500 * time.Millisecond}
	got := windowRates(at, []float64{1, 1, 2, 4, 100}, 2500*time.Millisecond)
	if len(got) != 2 || got[0] != 2/1.25 || got[1] != 6/1.25 {
		t.Errorf("windowRates = %v, want [1.6 4.8] (an event at the phase's end belongs to no window)", got)
	}
	if got := windowRates(nil, nil, 300*time.Millisecond); len(got) != 1 || got[0] != 0 {
		t.Errorf("a phase shorter than a second must be one window: %v", got)
	}
	// Eight windows: the fastest quarter is the top two.
	if got := fastestQuarter([]float64{5, 1, 8, 2, 7, 3, 6, 4}); got != 7.5 {
		t.Errorf("fastestQuarter = %v, want 7.5", got)
	}
	if got := fastestQuarter([]float64{3, 9, 6}); got != 9 {
		t.Errorf("fastestQuarter of three = %v, want 9", got)
	}
	if got := fastestQuarter(nil); got != 0 {
		t.Errorf("fastestQuarter of nothing = %v", got)
	}
}

func TestLateness(t *testing.T) {
	t0 := time.Unix(100, 0)
	if got := lateness(t0, t0.Add(3*time.Millisecond)); got != 3*time.Millisecond {
		t.Errorf("late send: %v", got)
	}
	if got := lateness(t0, t0.Add(-time.Millisecond)); got != 0 {
		t.Errorf("early send counted as late: %v", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := Span{ID: 1, Start: 100, End: 200}
	children := []Span{
		{Parent: 1, Start: 110, End: 130},
		{Parent: 1, Start: 120, End: 140}, // overlaps the first: 110–140 counted once
		{Parent: 1, Start: 190, End: 250}, // sticks out: only 190–200 counts
		{Parent: 1, Start: 10, End: 20},   // wholly outside
	}
	if got := selfTime(parent, children); got != 60 {
		t.Errorf("self time = %d, want 60", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("childless self time = %d, want 100", got)
	}
	spans := append([]Span{{ID: 1, Name: "file", Start: 100, End: 200}}, children[:2]...)
	spans[1].ID, spans[1].Name = 2, "a"
	spans[2].ID, spans[2].Name = 3, "b"
	byStage, root := stageSelfTimes(spans)
	if root != 100 || byStage["a"] != 20 || byStage["b"] != 20 {
		t.Errorf("stage self times %v over root %d", byStage, root)
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	worse := []float64{115, 116, 114, 115, 115}
	noisy := []float64{60, 140, 100, 80, 120}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		better string
		want   Verdict
	}{
		{"same", steady, steady, "lower", VerdictOK},
		{"latency up 15% against a 10% bound", steady, worse, "lower", VerdictRegressed},
		{"throughput up 15%", steady, worse, "higher", VerdictOK},
		{"throughput down 13%", worse, steady, "higher", VerdictRegressed},
		{"spread wider than the bound", noisy, steady, "lower", VerdictUnresolved},
	} {
		if got := judge(tc.a, tc.b, tc.better, 0.10).Verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestSpecMatchesHarness keeps BENCHMARK.json and the harness's metric
// and workload tables in step, and the spec inside its contract.
func TestSpecMatchesHarness(t *testing.T) {
	spec, err := LoadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, got []SpecMetric, want []MetricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: spec lists %d metrics, harness reports %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].Name || m.Unit != want[i].Unit {
				t.Errorf("%s[%d]: spec has %s (%s), harness %s (%s)", kind, i, m.Name, m.Unit, want[i].Name, want[i].Unit)
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: %q (%q) breaks the naming contract", kind, m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: %s has better=%q", kind, m.Name, m.Better)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, EndToEnd)
	check("per_layer", spec.PerLayer, PerLayer)
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if spec.EndToEnd[0].Name != "setup_s" || spec.EndToEnd[0].Unit != "s" || spec.EndToEnd[0].Better != "lower" {
		t.Errorf("the spec must carry setup_s (s, lower)")
	}
	// The spec lists the head of the harness's table; the rest are extras.
	if len(spec.Workloads) < 2 || len(spec.Workloads) > len(Workloads) {
		t.Fatalf("spec lists %d workloads, harness has %d", len(spec.Workloads), len(Workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != Workloads[i].Name {
			t.Errorf("workload %d: spec has %q, harness %q", i, w.Name, Workloads[i].Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
}

// storageCounts pushes n files of the seeded small_push sequence
// through a fresh traced instance over one connection, one file at a
// time (the next goes out once the previous one's delivery receipt is
// booked), and returns the FS wrapper's counts.
func storageCounts(t *testing.T, n int) (stats [numTrees]TreeStats, payload int64) {
	t.Helper()
	w, _ := WorkloadByName("small_push")
	w.Sources = 1
	gen, err := NewGenerator(w.Name, 11)
	if err != nil {
		t.Fatal(err)
	}
	led := newLedger(w.Outputs)
	in, err := boot(w, filepath.Join(t.TempDir(), "root"), led, true)
	if err != nil {
		t.Fatal(err)
	}
	defer in.stop()
	in.cfs.Enable(true)
	for k := 0; k < n; k++ {
		f := gen.File(k)
		rec := led.register(k, f, phaseWarmup, 0, time.Time{}, false)
		start := time.Now()
		err := in.conns[0].Upload(f.Name, f.Data)
		led.uploaded(rec, start, time.Now(), err)
		if err != nil {
			t.Fatal(err)
		}
		payload += int64(len(f.Data))
		deadline := time.Now().Add(20 * time.Second)
		for {
			led.mu.Lock()
			done := !rec.receipt.IsZero()
			led.mu.Unlock()
			if done {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("file %d: no delivery receipt", k)
			}
			time.Sleep(time.Millisecond)
		}
	}
	in.cfs.Enable(false)
	return in.cfs.Snapshot(), payload
}

// TestCountingFSExact: with one connection the fsync and byte counts
// are a property of the code, not of timing — two runs agree exactly.
func TestCountingFSExact(t *testing.T) {
	const n = 25
	a, payload := storageCounts(t, n)
	b, _ := storageCounts(t, n)
	for tree := Tree(0); tree < numTrees; tree++ {
		if a[tree].Fsyncs != b[tree].Fsyncs || a[tree].BytesW != b[tree].BytesW || a[tree].BytesR != b[tree].BytesR {
			t.Errorf("tree %d: run A %d fsyncs %d/%d bytes written/read, run B %d fsyncs %d/%d",
				tree, a[tree].Fsyncs, a[tree].BytesW, a[tree].BytesR, b[tree].Fsyncs, b[tree].BytesW, b[tree].BytesR)
		}
	}
	// Per file: staged temp fsync + staging dir fsync, and one WAL
	// fsync each for the arrival and the delivery receipt.
	if got := a[TreeStaging].Fsyncs; got != 2*n {
		t.Errorf("staging fsyncs = %d, want %d", got, 2*n)
	}
	if got := a[TreeReceipts].Fsyncs; got != 2*n {
		t.Errorf("WAL fsyncs = %d, want %d", got, 2*n)
	}
	if a[TreeLanding].BytesW != payload || a[TreeStaging].BytesW != payload {
		t.Errorf("landing wrote %d, staging wrote %d, payload is %d", a[TreeLanding].BytesW, a[TreeStaging].BytesW, payload)
	}
}

func TestCountingFSAttributesTrees(t *testing.T) {
	root := t.TempDir()
	c := NewCountingFS(diskfault.OS(), root)
	c.Enable(true)
	for _, dir := range []string{"landing/src1", "staging/F/src1", "receipts"} {
		if err := c.MkdirAll(filepath.Join(root, dir), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := diskfault.WriteFile(c, filepath.Join(root, "landing/src1/x"), []byte("abc"), 0o644); err != nil {
		t.Fatal(err)
	}
	tmp, err := c.CreateTemp(filepath.Join(root, "staging/F/src1"), ".tmp-*")
	if err != nil {
		t.Fatal(err)
	}
	tmp.Write([]byte("abcd"))
	tmp.Sync()
	tmp.Close()
	dst := filepath.Join(root, "staging/F/src1/x")
	if err := c.Rename(tmp.Name(), dst); err != nil {
		t.Fatal(err)
	}
	if err := c.SyncDir(filepath.Dir(dst)); err != nil {
		t.Fatal(err)
	}
	st := c.Snapshot()
	if st[TreeLanding].BytesW != 3 || st[TreeStaging].BytesW != 4 || st[TreeStaging].Fsyncs != 2 {
		t.Errorf("landing %+v staging %+v", st[TreeLanding], st[TreeStaging])
	}
	var landing, staging int
	for _, sp := range c.TakeSpans() {
		switch {
		case sp.Tree == TreeLanding && sp.Key == "src1/x":
			landing++
		case sp.Tree == TreeStaging && sp.Key == "F/src1/x" && sp.End.After(sp.Start):
			staging++
		}
	}
	if landing != 1 || staging != 1 {
		t.Errorf("spans: %d landing, %d staging; want one each", landing, staging)
	}
	c.Enable(false)
	if err := diskfault.WriteFile(c, filepath.Join(root, "landing/src1/y"), []byte("abc"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := c.Snapshot()[TreeLanding].BytesW; got != 3 {
		t.Errorf("disabled wrapper still counted: %d bytes", got)
	}
}

func TestMemoryBackedGuard(t *testing.T) {
	if !memoryBacked("tmpfs") || memoryBacked("ext4") {
		t.Fatal("memoryBacked misclassifies")
	}
	if _, err := os.Stat("/dev/shm"); err != nil {
		t.Skip("no /dev/shm to probe")
	}
	fs, err := fsType("/dev/shm")
	if err != nil || fs != "tmpfs" {
		t.Skipf("/dev/shm is %q (%v)", fs, err)
	}
	dir, err := os.MkdirTemp("/dev/shm", "feedbench-guard-")
	if err != nil {
		t.Skip(err)
	}
	defer os.RemoveAll(dir)
	if _, err := probeEnv(dir, false); err == nil {
		t.Error("a tmpfs work dir was accepted")
	}
	if _, err := probeEnv(dir, true); err != nil {
		t.Errorf("allowMemFS: %v", err)
	}
}

// TestSmoke runs every workload end to end with one-second phases on a
// scaled-down history: the oracle must pass, every declared metric
// must be reported, and the traced run must write its spans.
func TestSmoke(t *testing.T) {
	for _, w := range Workloads {
		for _, traced := range []bool{false, true} {
			if !traced && w.Name != "small_push" {
				continue // the traced run covers the same phases and oracle
			}
			name := fmt.Sprintf("%s/trace=%v", w.Name, traced)
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				res, err := Run(Config{Workload: w.Name, Seed: 1, Seconds: 2, Trace: traced,
					Dir: dir, allowMemFS: true, Setups: 1, Scale: 10})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("oracle: correct=%v failed=%d attempted=%d: %v", res.Correct, res.Failed, res.Attempted, res.Info["violations"])
				}
				defs := EndToEnd
				if traced {
					defs = PerLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s: %+v (reported=%v)", d.Name, m, ok)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v; must never be 0", d.Name, m.Value)
					}
				}
				if traced {
					data, err := os.ReadFile(res.Info["trace_file"].(string))
					if err != nil {
						t.Fatal(err)
					}
					var spans []Span
					if err := json.Unmarshal(data, &spans); err != nil || len(spans) == 0 {
						t.Fatalf("trace file: %d spans, %v", len(spans), err)
					}
					if cov := res.Metrics["trace.coverage"].Value; cov <= 0 || cov > 1.0001 {
						t.Errorf("trace.coverage = %v", cov)
					}
				}
			})
		}
	}
}
