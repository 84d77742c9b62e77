package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// num parses the leading float of a cell ("23x", "1.59s", "0.87").
func num(t *testing.T, cell string) float64 {
	t.Helper()
	end := 0
	for end < len(cell) && (cell[end] == '.' || cell[end] == '-' || (cell[end] >= '0' && cell[end] <= '9')) {
		end++
	}
	v, err := strconv.ParseFloat(cell[:end], 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v
}

func row(t *testing.T, tab Table, prefix string) []string {
	t.Helper()
	for _, r := range tab.Rows {
		if strings.HasPrefix(r[0], prefix) {
			return r
		}
	}
	t.Fatalf("no row with prefix %q in %s", prefix, tab.Format())
	return nil
}

// Every experiment must run clean at quick scale and reproduce the
// paper's qualitative shape — these assertions ARE the reproduction
// criteria recorded in EXPERIMENTS.md.

func TestE1Shape(t *testing.T) {
	tab, err := E1PullScan(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 2 {
		t.Fatal("need at least two history sizes")
	}
	// Scan entries grow with history; notification wins at every size.
	prev := 0.0
	for _, r := range tab.Rows {
		entries := num(t, r[1])
		if entries <= prev {
			t.Fatalf("scan entries not growing: %s", tab.Format())
		}
		prev = entries
		if speedup := num(t, r[5]); speedup < 2 {
			t.Fatalf("notification speedup %v < 2: %s", speedup, tab.Format())
		}
	}
}

func TestE2Shape(t *testing.T) {
	tab, err := E2RsyncVsReceipts(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, r := range tab.Rows {
		if strings.HasPrefix(r[0], "cron") {
			// The cron-overlap demo row: assert ticks were skipped.
			if num(t, r[5]) == 0 {
				t.Fatalf("cron overlap skipped nothing: %s", tab.Format())
			}
			continue
		}
		scanned := num(t, r[1])
		if scanned <= prev {
			t.Fatalf("rsync scan not growing: %s", tab.Format())
		}
		prev = scanned
		if ratio := num(t, r[5]); ratio < 2 {
			t.Fatalf("receipts not ahead of rsync: %s", tab.Format())
		}
	}
}

func TestE3Shape(t *testing.T) {
	tab, err := E3Propagation(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	notify := row(t, tab, "notify")
	scan := row(t, tab, "scan")
	// Both modes must beat the paper's one-minute bound after the
	// 100x scale-back; notification is faster than scanning.
	if s := num(t, notify[6]); s >= 60 {
		t.Fatalf("notify scaled max %vs >= 60s", s)
	}
	if s := num(t, scan[6]); s >= 60 {
		t.Fatalf("scan scaled max %vs >= 60s", s)
	}
	if num(t, notify[5]) >= num(t, scan[5]) {
		t.Fatalf("notify not faster than scan: %s", tab.Format())
	}
}

func TestE4Shape(t *testing.T) {
	tab, err := E4Scheduler(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	fifo := row(t, tab, "global-fifo")
	edf := row(t, tab, "global-edf")
	part := row(t, tab, "partitioned-edf")
	// Partitioning protects the fast subscriber.
	if num(t, part[1]) >= num(t, fifo[1]) {
		t.Fatalf("partitioned fast tardy not better than FIFO: %s", tab.Format())
	}
	// EDF improves alert tardiness over FIFO in the shared queue.
	if num(t, edf[2]) >= num(t, fifo[2]) {
		t.Fatalf("EDF alerts not better than FIFO: %s", tab.Format())
	}
	// The auto-migration extension matches hand-configured partitions.
	auto := row(t, tab, "auto-migrating")
	if num(t, auto[1]) >= num(t, fifo[1]) {
		t.Fatalf("auto-migration failed to protect fast subscriber: %s", tab.Format())
	}
	// Locality grouping improves on no grouping.
	off := row(t, tab, "ablation group-same-file=false")
	on := row(t, tab, "ablation group-same-file=true")
	if num(t, on[3]) > num(t, off[3]) {
		t.Fatalf("grouping made things worse: %s", tab.Format())
	}
}

func TestE5Shape(t *testing.T) {
	tab, err := E5Backfill(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	inorder := row(t, tab, "in-order")
	conc := row(t, tab, "concurrent")
	if inorder[1] != conc[1] {
		t.Fatalf("delivery counts differ: %s", tab.Format())
	}
	if num(t, conc[4]) >= num(t, inorder[4]) {
		t.Fatalf("concurrent backfill not better: %s", tab.Format())
	}
}

func TestE6Shape(t *testing.T) {
	tab, err := E6Batching(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	count := row(t, tab, "count=3")
	hybrid := row(t, tab, "hybrid")
	adaptive := row(t, tab, "adaptive")
	punct := row(t, tab, "punctuation")
	if num(t, count[2]) == 0 {
		t.Fatalf("count-only policy should break batches on fleet change: %s", tab.Format())
	}
	if num(t, hybrid[2]) != 0 {
		t.Fatalf("hybrid policy broke batches: %s", tab.Format())
	}
	if num(t, punct[2]) != 0 {
		t.Fatalf("punctuation broke batches: %s", tab.Format())
	}
	if num(t, adaptive[2]) != 0 {
		t.Fatalf("adaptive broke batches: %s", tab.Format())
	}
	// The learned policy closes faster than any static one.
	if num(t, adaptive[3]) >= num(t, hybrid[3]) {
		t.Fatalf("adaptive not faster than hybrid: %s", tab.Format())
	}
	// Punctuation closes fastest of all.
	if num(t, punct[3]) > num(t, hybrid[3]) {
		t.Fatalf("punctuation slower than hybrid: %s", tab.Format())
	}
}

func TestE7Shape(t *testing.T) {
	tab, err := E7Classifier(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// For the largest feed count, indexed must beat linear clearly.
	last := tab.Rows[len(tab.Rows)-2:]
	indexed, linear := 0.0, 0.0
	for _, r := range last {
		if r[1] == "true" {
			indexed = num(t, r[2])
		} else {
			linear = num(t, r[2])
		}
	}
	if indexed < 4*linear {
		t.Fatalf("prefix index speedup too small (indexed %v vs linear %v)", indexed, linear)
	}
}

func TestE8Shape(t *testing.T) {
	tab, err := E8Discovery(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	feeds := 0
	for _, r := range tab.Rows {
		if r[0] == "(junk)" {
			continue
		}
		if r[1] == "(not recovered)" {
			t.Fatalf("missed feed: %s", tab.Format())
		}
		feeds++
		if num(t, r[2]) < 0.99 || num(t, r[3]) < 0.99 {
			t.Fatalf("precision/recall below 0.99: %s", tab.Format())
		}
		if r[4] != "true" || r[5] != "true" {
			t.Fatalf("period/source inference failed: %s", tab.Format())
		}
	}
	if feeds < 6 {
		t.Fatalf("expected 6 ground-truth feeds, saw %d", feeds)
	}
}

func TestE9Shape(t *testing.T) {
	tab, err := E9FalseNegatives(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	bistroRow := row(t, tab, "bistro")
	ed := row(t, tab, "edit-distance")
	if num(t, bistroRow[1]) < 0.95 {
		t.Fatalf("bistro linking accuracy too low: %s", tab.Format())
	}
	// Warning-volume reduction: orders of magnitude fewer warnings.
	if num(t, bistroRow[2])*10 > num(t, ed[2]) {
		t.Fatalf("no warning-volume reduction: %s", tab.Format())
	}
	// Structural similarity separates links from noise better than
	// edit distance does.
	if num(t, bistroRow[5]) <= num(t, ed[5]) {
		t.Fatalf("structural margin not ahead of edit distance: %s", tab.Format())
	}
}

func TestE10Shape(t *testing.T) {
	tab, err := E10Recovery(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	dup := row(t, tab, "duplicates")
	if num(t, dup[1]) != 0 {
		t.Fatalf("duplicates after restart: %s", tab.Format())
	}
	// Counted, not timed: per-commit mode pays one WAL fsync per
	// commit, and group commit one per lockstep round of all writers.
	commits := num(t, row(t, tab, "wal commits per run")[1])
	if got := num(t, row(t, tab, "wal fsyncs, most of 3 runs (fsync per commit")[1]); got != commits {
		t.Fatalf("per-commit mode: %v fsyncs for %v commits: %s", got, commits, tab.Format())
	}
	if got := num(t, row(t, tab, "wal fsyncs, most of 3 runs (group commit")[1]); got != commits/walWriters {
		t.Fatalf("group commit: %v fsyncs for %v commits, want one per %d: %s", got, commits, walWriters, tab.Format())
	}
	group := row(t, tab, "wal commits/sec (group")
	singles := row(t, tab, "wal commits/sec (fsync")
	if num(t, group[1]) < num(t, singles[1]) {
		t.Fatalf("group commit slower than per-commit fsync: %s", tab.Format())
	}
}

func TestE11Shape(t *testing.T) {
	tab, err := E11Degradation(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	nofault := row(t, tab, "no-fault")
	fault := row(t, tab, "flap-fault")
	// Everything arrives eventually in both scenarios (3 subscribers x
	// same arrival count).
	if nofault[1] != fault[1] {
		t.Fatalf("delivered counts differ: %s", tab.Format())
	}
	// Graceful degradation: a flapping peer must not spill into the
	// healthy subscribers' tardiness (<= 2x no-fault plus 1s epsilon).
	if num(t, fault[2]) > 2*num(t, nofault[2])+1 {
		t.Fatalf("healthy mean tardiness degraded: %s", tab.Format())
	}
	// The fault run exercises the retry and probe paths.
	if num(t, fault[4]) == 0 || num(t, fault[5]) == 0 {
		t.Fatalf("no retries/probes under faults: %s", tab.Format())
	}
	if num(t, nofault[4]) != 0 || num(t, nofault[5]) != 0 {
		t.Fatalf("retries/probes without faults: %s", tab.Format())
	}
	// Exponential probing reaches the dead host with strictly less
	// traffic than the fixed interval over the same window.
	fixed := row(t, tab, "probe-fixed=15s")
	exp := row(t, tab, "probe-exp=15s..2m")
	if f, e := num(t, fixed[5]), num(t, exp[5]); e >= f || e == 0 {
		t.Fatalf("exp probes %v not below fixed %v: %s", e, f, tab.Format())
	}
}

func TestTableFormat(t *testing.T) {
	tab := Table{
		ID: "EX", Title: "demo", Claim: "c",
		Header: []string{"a", "long_column"},
		Rows:   [][]string{{"1", "2"}},
		Notes:  []string{"n"},
	}
	out := tab.Format()
	for _, want := range []string{"EX: demo", "long_column", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("format missing %q:\n%s", want, out)
		}
	}
}

func TestAllRunnersListed(t *testing.T) {
	rs := All()
	if len(rs) != 20 {
		t.Fatalf("runners = %d, want 20", len(rs))
	}
	seen := map[string]bool{}
	for _, r := range rs {
		if seen[r.ID] {
			t.Fatalf("duplicate id %s", r.ID)
		}
		seen[r.ID] = true
		if r.Run == nil {
			t.Fatalf("%s has no runner", r.ID)
		}
	}
}

func TestMsSecsFormat(t *testing.T) {
	if got := ms(1500 * time.Microsecond); got != "1.50ms" {
		t.Fatalf("ms = %q", got)
	}
	if got := secs(90 * time.Second); got != "90.00s" {
		t.Fatalf("secs = %q", got)
	}
}
