//go:build linux

package benchmark

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// Spec is BENCHMARK.json: the benchmark's contract with its driver.
type Spec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []SpecLoad   `json:"workloads"`
	EndToEnd   []SpecMetric `json:"end_to_end"`
	PerLayer   []SpecMetric `json:"per_layer"`
}

// SpecLoad is one workload entry of the spec.
type SpecLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// SpecMetric is one metric entry of the spec. Bound is the share of
// the baseline median by which an end-to-end metric may worsen.
type SpecMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// LoadSpec reads BENCHMARK.json.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadSet reads every untraced result file (*.json) under dir, grouped
// by workload.
func loadSet(dir string) (map[string][]*Result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	set := make(map[string][]*Result)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r Result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Workload == "" || r.Trace {
			continue
		}
		set[r.Workload] = append(set[r.Workload], &r)
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s: no untraced result files", dir)
	}
	return set, nil
}

// Verdict is the outcome of comparing one metric on one workload.
type Verdict string

const (
	// VerdictOK: set B's median is no worse than set A's by more than
	// the metric's bound.
	VerdictOK Verdict = "ok"
	// VerdictRegressed: it is worse by more than the bound.
	VerdictRegressed Verdict = "regressed"
	// VerdictUnresolved: a set's own quartile spread exceeds the bound,
	// so the runs cannot tell a regression of that size from noise.
	VerdictUnresolved Verdict = "unresolved"
)

// Row is one workload × metric comparison.
type Row struct {
	Workload, Metric, Unit string
	NA, NB                 int
	MedianA, MedianB       float64
	SpreadA, SpreadB       float64 // interquartile distance ÷ median
	Change                 float64 // (B − A) ÷ A, signed so that positive is worse
	Bound                  float64
	Verdict                Verdict
}

// judge compares two samples of one metric.
func judge(a, b []float64, better string, bound float64) Row {
	row := Row{NA: len(a), NB: len(b), MedianA: median(a), MedianB: median(b),
		SpreadA: spread(a), SpreadB: spread(b), Bound: bound}
	if row.MedianA != 0 {
		row.Change = (row.MedianB - row.MedianA) / row.MedianA
		if better == "higher" {
			row.Change = -row.Change
		}
	}
	switch {
	case row.SpreadA > bound || row.SpreadB > bound:
		row.Verdict = VerdictUnresolved
	case row.Change > bound:
		row.Verdict = VerdictRegressed
	default:
		row.Verdict = VerdictOK
	}
	return row
}

// Compare judges every workload × end-to-end metric of result set B
// (the change) against set A (the baseline) by the spec's bounds. The
// extra workloads are judged like the spec's when both sets hold them.
func Compare(spec *Spec, dirA, dirB string) ([]Row, error) {
	setA, err := loadSet(dirA)
	if err != nil {
		return nil, err
	}
	setB, err := loadSet(dirB)
	if err != nil {
		return nil, err
	}
	values := func(rs []*Result, metric string) []float64 {
		var out []float64
		for _, r := range rs {
			if m, ok := r.Metrics[metric]; ok {
				out = append(out, m.Value)
			}
		}
		return out
	}
	var rows []Row
	for _, wl := range Workloads {
		a, b := setA[wl.Name], setB[wl.Name]
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		for _, m := range spec.EndToEnd {
			row := judge(values(a, m.Name), values(b, m.Name), m.Better, m.Bound)
			row.Workload, row.Metric, row.Unit = wl.Name, m.Name, m.Unit
			rows = append(rows, row)
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("the two sets share no workload")
	}
	return rows, nil
}

// PrintRows renders a comparison and reports whether anything
// regressed.
func PrintRows(w io.Writer, rows []Row) (regressed bool) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tn A/B\tmedian A\tmedian B\tspread A\tspread B\tworse by\tbound\tverdict\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d/%d\t%.4g\t%.4g\t%.1f%%\t%.1f%%\t%+.1f%%\t%.0f%%\t%s\t\n",
			r.Workload, r.Metric, r.Unit, r.NA, r.NB, r.MedianA, r.MedianB,
			100*r.SpreadA, 100*r.SpreadB, 100*r.Change, 100*r.Bound, r.Verdict)
		regressed = regressed || r.Verdict == VerdictRegressed
	}
	tw.Flush()
	return regressed
}

// PrintResult renders one run's metrics for people (stderr); the
// machine-readable line goes to stdout separately.
func PrintResult(w io.Writer, res *Result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s seed=%d seconds=%g trace=%v  correct=%v attempted=%d failed=%d\n",
		res.Workload, res.Seed, res.Seconds, res.Trace, res.Correct, res.Attempted, res.Failed)
	fmt.Fprintf(w, "env: %s nproc=%d GOMAXPROCS=%d commit=%s fs=%s fsync p50/p99=%.0f/%.0fus (%s)\n",
		res.Env.GoVersion, res.Env.NumCPU, res.Env.GOMAXPROCS, res.Env.Commit, res.Env.FSType,
		res.Env.FsyncP50Us, res.Env.FsyncP99Us, res.Env.Network)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", name, m.Value, m.Unit)
	}
	tw.Flush()
	for _, key := range []string{"samples", "files_per_s_mean", "deposit_ack_p50_ms", "propagation_p50_ms", "cpu_s_per_gb", "gen_late_p99_ms", "paced_backlog_end", "setup_rounds_s", "oracle", "stage_self_ms", "violations"} {
		if val, ok := res.Info[key]; ok {
			data, _ := json.Marshal(val)
			fmt.Fprintf(w, "  %s: %s\n", key, data)
		}
	}
}
