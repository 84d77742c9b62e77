package experiments

import (
	"testing"
	"time"
)

// TestE14Shape asserts the scaling claim the tentpole was built for,
// first as the fsync counts it is made of, then as time. Staging costs
// exactly two fsyncs per file (temp file, directory) in every row; the
// serial row (1 worker, no flush window) pays one WAL fsync per receipt
// commit, while 4 workers with the group-commit window share a WAL
// fsync among several commits. Those counts do not depend on the host.
// The wall-clock claim — at least 2x the serial throughput with fsync
// cost modeled at a fixed latency, propagation p95 under the paper's
// one-minute bound — is judged best-of-three, because a busy host can
// slow any single pair.
func TestE14Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-server scaling trial")
	}
	cfg := E14TrialConfig{
		Sources:      8,
		PerSource:    15,
		FsyncLatency: 2 * time.Millisecond,
	}
	serial := cfg
	serial.Workers = 1
	sharded := cfg
	sharded.Workers = 4
	sharded.GroupCommit = true

	best := 0.0
	for pair := 1; pair <= 3 && best < 2; pair++ {
		base, err := E14IngestTrial(serial)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := E14IngestTrial(sharded)
		if err != nil {
			t.Fatal(err)
		}
		for name, r := range map[string]*E14TrialResult{"serial": base, "sharded": fast} {
			if r.StagingFsyncs != 2*r.Files {
				t.Fatalf("%s: %d staging fsyncs for %d files, want exactly 2 per file", name, r.StagingFsyncs, r.Files)
			}
			if r.PropagationP95 >= time.Minute {
				t.Fatalf("%s propagation p95 %v breaches the one-minute bound", name, r.PropagationP95)
			}
		}
		if base.WALFsyncs != base.Commits {
			t.Fatalf("serial: %d WAL fsyncs for %d commits, want one each", base.WALFsyncs, base.Commits)
		}
		if perCommit := float64(fast.WALFsyncs) / float64(fast.Commits); perCommit > 0.65 {
			t.Fatalf("4 workers + window: %d WAL fsyncs for %d commits (%.2f each), want <= 0.65 — the window is not batching",
				fast.WALFsyncs, fast.Commits, perCommit)
		}
		speedup := base.IngestTime.Seconds() / fast.IngestTime.Seconds()
		t.Logf("pair %d: serial %v (%d WAL fsyncs / %d commits), 4 workers+gc %v (%d / %d): %.2fx",
			pair, base.IngestTime, base.WALFsyncs, base.Commits, fast.IngestTime, fast.WALFsyncs, fast.Commits, speedup)
		best = max(best, speedup)
	}
	if best < 2 {
		t.Fatalf("classify+commit speedup at 4 workers is %.2fx at best of three pairs, want >= 2x", best)
	}
}
