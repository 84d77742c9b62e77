package experiments

import (
	"testing"
	"time"
)

// TestE19Shape asserts the pull plane's contract at fleet scale:
// thousands of concurrent HTTP pollers against one daemon each observe
// every deposited file id exactly once — no duplicates, no misses
// (the merged staging+manifest log never shows a transient hole) —
// and the server CPU attributable to each client stays bounded (per-
// client cost is a few cheap page requests, not standing state).
func TestE19Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-scale poller trial")
	}
	r, err := E19Trial(E19TrialConfig{
		Mode:         "poll",
		Clients:      2000,
		Files:        6,
		FileSize:     1024,
		PollInterval: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("2000 pollers: p50 %v p99 %v cpu/client %v requests %d", r.PropagationP50, r.PropagationP99, r.CPUPerClient, r.Requests)
	if r.Duplicates != 0 {
		t.Fatalf("%d duplicate (poller, id) observations, want none", r.Duplicates)
	}
	if r.Missed != 0 {
		t.Fatalf("%d missed (poller, id) observations, want none — the log showed a hole", r.Missed)
	}
	if r.Requests == 0 {
		t.Fatal("no HTTP requests recorded")
	}
	// Generous absolute ceiling: a poller's share of server CPU for the
	// whole trial is a handful of page reads. Blowing through this
	// means per-request cost grew with the fleet (accidental O(clients)
	// state or scans).
	if r.CPUPerClient > 250*time.Millisecond {
		t.Fatalf("cpu per client = %v, want <= 250ms", r.CPUPerClient)
	}
	// Propagation is poll-interval-bound by design; it must still be
	// finite and sane (every poller caught up, so p99 was measured).
	if r.PropagationP99 <= 0 {
		t.Fatal("no propagation samples")
	}
	// Every row of the table measures CPU spent: a push row of 0.00ms
	// read wall time, not CPU.
	tab, err := E19HTTPPull(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if num(t, row[4]) <= 0 {
			t.Fatalf("%s row with %s clients: cpu/client %s, want > 0: %s", row[0], row[1], row[4], tab.Format())
		}
	}
	// The paper's direction (§2.2): a pushed subscriber costs the server
	// less CPU than a poller does at the same fleet size.
	push := map[string]float64{}
	for _, row := range tab.Rows {
		if row[0] == "push" {
			push[row[1]] = num(t, row[4])
		}
	}
	compared := 0
	for _, row := range tab.Rows {
		if p, ok := push[row[1]]; ok && row[0] == "poll" {
			compared++
			if p >= num(t, row[4]) {
				t.Errorf("%s clients: push cpu/client %vms, not below poll's %s: %s", row[1], p, row[4], tab.Format())
			}
		}
	}
	if compared == 0 {
		t.Fatalf("no push row has a poll row of its size: %s", tab.Format())
	}
}
