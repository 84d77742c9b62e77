package experiments

import (
	"testing"

	"bistro/internal/diskfault"
)

func TestE12Shape(t *testing.T) {
	tab, err := E12CrashConsistency(Options{Quick: true})
	if err != nil {
		t.Fatalf("%v\n%s", err, tab.Format())
	}
	if got := num(t, row(t, tab, "crash-restart rounds")[1]); got != 50 {
		t.Fatalf("rounds = %v, want 50: %s", got, tab.Format())
	}
	if num(t, row(t, tab, "acked arrivals lost")[1]) != 0 {
		t.Fatalf("acked arrivals lost: %s", tab.Format())
	}
	if num(t, row(t, tab, "unreconciled staging/DB divergences")[1]) != 0 {
		t.Fatalf("divergences survived reconcile: %s", tab.Format())
	}
	if num(t, row(t, tab, "acked files missing at subscriber")[1]) != 0 {
		t.Fatalf("at-least-once delivery broken: %s", tab.Format())
	}
	// The harness must actually exercise the failure mode: most rounds
	// should cut the power mid-operation.
	if num(t, row(t, tab, "power cuts mid-operation")[1]) < 25 {
		t.Fatalf("too few mid-operation cuts — harness not biting: %s", tab.Format())
	}
	// Plan rounds: every record exactly once across cuts, and the
	// cuts must land mid-plan for the claim to mean anything.
	if num(t, row(t, tab, "plan record-level exactly-once violations")[1]) != 0 {
		t.Fatalf("plan exactly-once broken: %s", tab.Format())
	}
	if num(t, row(t, tab, "plan outputs missing at subscriber")[1]) != 0 {
		t.Fatalf("plan outputs undelivered: %s", tab.Format())
	}
	if num(t, row(t, tab, "plan power cuts mid-operation")[1]) < 12 {
		t.Fatalf("too few mid-plan cuts — plan harness not biting: %s", tab.Format())
	}
	if num(t, row(t, tab, "plan deposits acknowledged")[1]) == 0 {
		t.Fatalf("no plan deposits acknowledged — plan harness vacuous: %s", tab.Format())
	}
	// Both recovery modes must have produced real measurements. The
	// replay-vs-checkpoint comparison itself lives in EXPERIMENTS.md —
	// at Quick scale under instrumented builds (-race) the two are too
	// close to assert an ordering, so only sanity-bound the ratio.
	replay := num(t, row(t, tab, "recovery time")[1])
	ckpt := num(t, tab.Rows[len(tab.Rows)-1][1])
	if replay <= 0 || ckpt <= 0 {
		t.Fatalf("recovery timings missing: replay=%v ckpt=%v: %s", replay, ckpt, tab.Format())
	}
	if ckpt > replay*5 {
		t.Fatalf("checkpoint recovery (%v) far slower than replay (%v): %s", ckpt, replay, tab.Format())
	}
}

// TestE12GroupCommitSharded reruns the crash-restart property harness
// with the sharded ingest pipeline and the WAL flush window enabled:
// concurrent per-source depositors race randomized power cuts across
// shard and group-commit batch boundaries. The acked-durability
// invariant must hold unchanged — no Deposit acknowledgement may ever
// precede its batch's fsync, or the rollback to the fsync-covered
// state would surface the loss here.
func TestE12GroupCommitSharded(t *testing.T) {
	res, err := RunCrashRounds(CrashRoundsConfig{
		Rounds:      20,
		PerRound:    9,
		Seed:        1106,
		Workers:     4,
		GroupCommit: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Violations(); v != 0 {
		t.Fatalf("%d invariant violations with workers=4 + group commit: %+v", v, res)
	}
	if res.MidOpCrashes < 10 {
		t.Fatalf("only %d mid-operation cuts — harness not biting", res.MidOpCrashes)
	}
	if res.Acked == 0 {
		t.Fatal("no deposits acknowledged — harness vacuous")
	}
}

// TestE12CutBetweenWireAckAndReceiptCommit runs the harness against a
// TCP subscriber that outlives the server: delivery frees the
// subscriber's slot at wire ack and commits receipts in batches behind
// the flush window, so a power cut can now strand a whole batch of
// acked-but-unrecorded files. The contract: none is lost, the restarted
// server re-sends exactly those, and the subscriber's DedupByID
// swallows the re-sends.
func TestE12CutBetweenWireAckAndReceiptCommit(t *testing.T) {
	res, err := RunCrashRounds(CrashRoundsConfig{
		Rounds:        30,
		PerRound:      9,
		Seed:          1307,
		Workers:       4,
		GroupCommit:   true,
		TCPSubscriber: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Violations(); v != 0 {
		t.Fatalf("%d invariant violations with batched receipts over TCP: %+v", v, res)
	}
	if res.MidOpCrashes < 15 {
		t.Fatalf("only %d mid-operation cuts — harness not biting", res.MidOpCrashes)
	}
	if res.Acked == 0 {
		t.Fatal("no deposits acknowledged — harness vacuous")
	}
	// Some cut must have landed inside the window this test is about.
	if res.Resent == 0 {
		t.Fatalf("no re-send was ever needed: no cut fell between a wire ack and its receipt commit: %+v", res)
	}
	t.Logf("%d acked, %d mid-op cuts, %d re-sends suppressed by DedupByID", res.Acked, res.MidOpCrashes, res.Resent)
}

// TestE12DetectsNonDurableRename deliberately reintroduces the bug
// class the harness targets: a lying fsync on the staging temp files
// makes the promote rename non-durable again (the pre-hardening
// behaviour), and the harness must report violations — proving E12 can
// catch the bug, not just pass vacuously.
func TestE12DetectsNonDurableRename(t *testing.T) {
	res, err := RunCrashRounds(CrashRoundsConfig{
		Rounds:   15,
		PerRound: 6,
		Seed:     1106,
		Fault:    diskfault.Options{LieSyncSubstr: ".bistro-tmp-"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations() == 0 {
		t.Fatalf("lying fsync produced no violations — the harness cannot detect the bug class it targets: %+v", res)
	}
}
