package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"bistro/internal/delivery"
	"bistro/internal/diskfault"
	"bistro/internal/oracle"
	"bistro/internal/receipts"
	"bistro/internal/server"
	"bistro/internal/subclient"
)

// E12CrashConsistency is the randomized crash-restart property harness
// for the §4.2 durability contract: the full server runs over the
// diskfault power-cut filesystem, the power is cut at a random point
// in each round, and the restarted server must show (a) every
// acknowledged arrival still present, deliverable, and never
// quarantined, (b) zero staging/DB divergences surviving the startup
// reconcile, and (c) at-least-once delivery with duplicates bounded by
// the receipts lost to the cut. It also measures recovery time against
// the checkpoint policy.
func E12CrashConsistency(o Options) (Table, error) {
	t := Table{
		ID:     "E12",
		Title:  "crash-consistency under randomized power cuts",
		Claim:  "the receipt DB and the staged payloads it points at survive power cuts together; startup reconciliation quarantines any divergence instead of failing transfers (§4.2)",
		Header: []string{"measure", "value"},
	}
	rounds := 50
	perRound := 6
	if o.Quick {
		perRound = 4
	}
	res, err := RunCrashRounds(CrashRoundsConfig{
		Rounds:   rounds,
		PerRound: perRound,
		Seed:     1106,
	})
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows,
		[]string{"crash-restart rounds", fmt.Sprintf("%d", res.Rounds)},
		[]string{"deposits attempted", fmt.Sprintf("%d", res.Attempted)},
		[]string{"deposits acknowledged", fmt.Sprintf("%d", res.Acked)},
		[]string{"power cuts mid-operation", fmt.Sprintf("%d", res.MidOpCrashes)},
		[]string{"acked arrivals lost", fmt.Sprintf("%d", res.LostAcked)},
		[]string{"unreconciled staging/DB divergences", fmt.Sprintf("%d", res.Divergences)},
		[]string{"receipts quarantined", fmt.Sprintf("%d", res.Quarantined)},
		[]string{"orphan staged files re-ingested", fmt.Sprintf("%d", res.Reingested)},
		[]string{"acked files missing at subscriber", fmt.Sprintf("%d", res.Undelivered)},
		[]string{"duplicate deliveries (at-least-once)", fmt.Sprintf("%d", res.Duplicates)},
	)
	if v := res.Violations(); v != 0 {
		return t, fmt.Errorf("e12: %d invariant violations: %+v", v, res)
	}

	// Plan pipeline under the same power cuts: validate rejects and
	// routed splits must land each record exactly once — re-running a
	// half-finished plan after a crash overwrites deterministic output
	// paths instead of appending or duplicating.
	pres, err := RunPlanCrashRounds(CrashRoundsConfig{
		Rounds:   25,
		PerRound: perRound,
		Seed:     2012,
	})
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows,
		[]string{"plan crash-restart rounds", fmt.Sprintf("%d", pres.Rounds)},
		[]string{"plan deposits acknowledged", fmt.Sprintf("%d", pres.Acked)},
		[]string{"plan power cuts mid-operation", fmt.Sprintf("%d", pres.MidOpCrashes)},
		[]string{"plan record-level exactly-once violations", fmt.Sprintf("%d", pres.RecordViolations)},
		[]string{"plan outputs missing at subscriber", fmt.Sprintf("%d", pres.Undelivered)},
	)
	if v := pres.RecordViolations + pres.Undelivered; v != 0 {
		return t, fmt.Errorf("e12: %d plan exactly-once violations: %+v", v, pres)
	}

	// Recovery time vs checkpoint policy: replaying a long WAL tail
	// against recovering from a snapshot.
	n := 5000
	if o.Quick {
		n = 1500
	}
	for _, mode := range []string{"full WAL replay", "after checkpoint"} {
		d, err := recoveryTime(n, mode == "after checkpoint")
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("recovery time, %d receipts, %s", n, mode), ms(d)})
	}
	t.Notes = append(t.Notes,
		"each round arms a random power cut, runs ingest+delivery over the fault filesystem, rolls the disk back to the fsync-covered state, and restarts",
		"plan rounds run a validate+route plan per arrival: each record must end up in exactly one of primary staging, a derived feed, or the reject quarantine — exactly once — across any number of mid-plan cuts",
		"staged promotes fsync file+directory before the arrival receipt commits, so a surviving receipt implies a surviving payload",
		"delivery receipts lost to a cut cause bounded redelivery: at-least-once, duplicates overwrite in place",
		"checkpoints bound recovery to the snapshot decode instead of the full WAL replay")
	return t, nil
}

// CrashRoundsConfig parameterizes the crash-restart property harness.
type CrashRoundsConfig struct {
	// Rounds is how many crash-restart cycles to run.
	Rounds int
	// PerRound is how many files are deposited per round.
	PerRound int
	// Seed drives the per-round fault RNGs and crash points.
	Seed int64
	// Fault overlays extra diskfault behaviour on every round —
	// LieSyncSubstr in particular deliberately reintroduces the
	// non-durable-rename bug class so tests can prove the harness
	// detects it. PowerCut and TornWrites are always forced on.
	Fault diskfault.Options
	// Workers > 1 switches to the sharded ingest pipeline: three
	// sources deposit concurrently into per-source directories, so
	// crashes land across flush-window and shard boundaries. 0 or 1
	// keeps the original serial harness byte-for-byte.
	Workers int
	// GroupCommit enables the WAL flush window (small batch/delay, so
	// every round crosses many batch boundaries).
	GroupCommit bool
	// TCPSubscriber delivers over TCP to a subscriber daemon with
	// DedupByID that outlives every crash of the server, as a
	// subscriber's machine does. A cut between a file's wire ack and
	// its receipt commit then shows up as a counted, suppressed re-send
	// (Resent) instead of a silent overwrite in a local directory.
	TCPSubscriber bool
}

// CrashRoundsResult aggregates the harness counters.
type CrashRoundsResult struct {
	Rounds       int
	Attempted    int
	Acked        int
	MidOpCrashes int
	// LostAcked counts acknowledged arrivals missing from the receipt
	// DB after restart, or quarantined, or with a bad payload — the
	// headline durability violation.
	LostAcked int
	// Divergences counts receipts (acked or not) whose staged payload
	// is missing or corrupt after the startup reconcile supposedly
	// repaired the tree.
	Divergences int
	Quarantined int
	Reingested  int
	// Undelivered counts acked files absent from the subscriber tree
	// after the final clean run drained all queues.
	Undelivered int
	Duplicates  int
	// Resent counts re-sends the TCP subscriber's DedupByID suppressed:
	// files acked on the wire whose receipt a cut kept from committing.
	Resent int
}

// Violations is the number of invariant breaches (zero for a healthy
// storage path).
func (r *CrashRoundsResult) Violations() int {
	return r.LostAcked + r.Divergences + r.Undelivered
}

// e12ConfigText renders the harness configuration for the requested
// pipeline shape: the serial shape has no ingest block.
func e12ConfigText(cfg CrashRoundsConfig) string {
	text := `
feed CPU { pattern "CPU_POLL%i_%Y%m%d%H%M.txt" }
subscriber wh { dest "in" subscribe CPU }
`
	if cfg.Workers <= 1 && !cfg.GroupCommit {
		return text
	}
	ingest := fmt.Sprintf("ingest {\n    workers %d\n", max(cfg.Workers, 1))
	if cfg.GroupCommit {
		// A small window so every round crosses many flush boundaries.
		ingest += "    group_commit { max_batch 8 max_delay 1ms }\n"
	}
	text = ingest + "}\n" + text
	if cfg.Workers > 1 {
		text = strings.Replace(text, `"CPU_POLL`, `"src%i/CPU_POLL`, 1)
	}
	return text
}

// RunCrashRounds executes the crash-restart property loop and checks
// the invariants after every restart. It is exported (within the
// experiments package's test surface) so a test can rerun it with a
// lying fsync and assert the violations become visible.
func RunCrashRounds(cfg CrashRoundsConfig) (*CrashRoundsResult, error) {
	root, err := tempRoot("e12")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	confText := e12ConfigText(cfg)
	var daemon *subclient.Daemon
	if cfg.TCPSubscriber {
		// DestDir is root, so pushed files land in the same root/in/CPU
		// tree the local-directory shape fills.
		daemon, err = subclient.Start("127.0.0.1:0", subclient.Options{Name: "wh", DestDir: root, DedupByID: true})
		if err != nil {
			return nil, err
		}
		defer daemon.Stop()
		confText = strings.Replace(confText, "subscriber wh {", fmt.Sprintf("subscriber wh { host %q", daemon.Addr()), 1)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &CrashRoundsResult{Rounds: cfg.Rounds}
	ledger := oracle.New()
	opts := server.Options{Root: root, ScanInterval: -1, OnEvent: func(ev delivery.Event) {
		if ev.Kind == delivery.EvDelivered {
			ledger.Deliver(oracle.Push, ev.Subscriber, ev.Name, 0)
		}
	}}

	base := time.Date(2010, 9, 25, 0, 0, 0, 0, time.UTC)
	for round := 0; round < cfg.Rounds; round++ {
		faulty := powerCut(cfg.Fault, cfg.Seed+int64(round)+1)
		opts.FS = faulty
		srv, err := startServer(confText, opts)
		if err != nil {
			return nil, fmt.Errorf("e12 round %d: restart: %w", round, err)
		}
		res.Reingested = checkRecovered(ledger, srv.Store(), root)
		faulty.SetCrashAfter(3 + rng.Int63n(45))

		// Ingest and delivery race the armed cut. The sharded shape has
		// three sources deposit concurrently into their own
		// directories, in per-source order, so cuts land across shard
		// and flush-window boundaries.
		nSrc := 1
		if cfg.Workers > 1 {
			nSrc = 3
		}
		inParallel(nSrc, func(s int) error {
			for i := s; i < cfg.PerRound; i += nSrc {
				n := round*cfg.PerRound + i
				name := fmt.Sprintf("CPU_POLL%d_%s.txt", i%3+1, base.Add(time.Duration(n)*time.Minute).Format("200601021504"))
				if nSrc > 1 {
					name = fmt.Sprintf("src%d/%s", i%3+1, name)
				}
				deposit(srv, ledger, name, fmt.Sprintf("round=%d file=%d payload=%032d", round, n+1, n+1))
			}
			return nil
		})
		if raceTheCut(srv, faulty, ledger, "wh", 300*time.Millisecond) {
			res.MidOpCrashes++
		}
		srv.Stop()
		// Pull the plug: roll the disk back to the durable prefix.
		if err := faulty.Crash(); err != nil {
			return nil, fmt.Errorf("e12 round %d: crash rollback: %w", round, err)
		}
	}

	// Final clean run: drain every queue and verify at-least-once
	// delivery of all acknowledged files.
	opts.FS = diskfault.OS()
	srv, err := startServer(confText, opts)
	if err != nil {
		return nil, fmt.Errorf("e12 final restart: %w", err)
	}
	defer srv.Stop()
	res.Reingested = checkRecovered(ledger, srv.Store(), root)
	st := srv.Store().Stats()
	res.Quarantined = st.Quarantined
	waitFor(60*time.Second, func() bool { return len(srv.Store().PendingFor("wh", []string{"CPU"})) == 0 })
	res.Undelivered = ledger.Missing(holdsIn(filepath.Join(root, "in", "CPU")))
	if daemon != nil {
		res.Resent = daemon.DuplicatesSuppressed()
	}
	res.Attempted, res.Acked = ledger.Attempted(), ledger.Acked()
	res.LostAcked, res.Divergences = ledger.Lost(), ledger.Diverged()
	res.Duplicates = max(0, ledger.Deliveries(oracle.Push)-(st.Files-st.Quarantined))
	return res, nil
}

// e12PlanConfig runs every arrival through a plan exercising the two
// crash seams the exactly-once argument rests on: a validate reject
// (quarantine output committed alongside the primary) and a route
// split (derived feed staged and recorded in the parent's receipt
// batch).
const e12PlanConfig = `
feed CPU {
    pattern "CPU_POLL%i_%Y%m%d%H%M.txt"
    plan {
        parse csv
        validate { columns 2 }
        extract tag 1
        route tag { "d" DERIV }
    }
}
feed DERIV { }
subscriber wh { dest "in" subscribe CPU }
subscriber whd { dest "ind" subscribe DERIV }
`

// PlanCrashResult aggregates the plan crash harness counters.
type PlanCrashResult struct {
	Rounds       int
	Attempted    int
	Acked        int
	MidOpCrashes int
	// RecordViolations counts acked arrivals whose primary, derived, or
	// reject output did not hold exactly the expected records after the
	// final clean restart — record loss or duplication either way.
	RecordViolations int
	// Undelivered counts acked plan outputs missing (or wrong) in a
	// subscriber tree after every queue drained.
	Undelivered int
	// BrokenProvenance counts derived receipts whose Origin does not
	// resolve to a parent arrival after all the restarts.
	BrokenProvenance int
}

// planPayload is one deposit: a record that stays primary, a record
// that routes to DERIV, and a record validate rejects. n makes every
// line globally unique so duplication is detectable as content drift.
func planPayload(n int) string {
	return fmt.Sprintf("p,keep%032d\nd,route%032d\nbad%d\n", n, n, n)
}

// RunPlanCrashRounds is the E12 harness over the plan pipeline: the
// same randomized power cuts and disk rollbacks, but every arrival
// fans into three outputs whose contents are checked record by record
// after the final clean restart. Deterministic output paths make the
// exactly-once claim checkable as plain content equality: a replayed
// half-finished plan overwrites, so any append-or-duplicate bug shows
// up as drift from the expected bytes. Two ledgers take each acked
// arrival's outputs as deposits under their paths below root: one the
// staged and quarantined outputs, one the delivered copies.
func RunPlanCrashRounds(cfg CrashRoundsConfig) (*PlanCrashResult, error) {
	root, err := tempRoot("e12p")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &PlanCrashResult{Rounds: cfg.Rounds}
	staged, delivered := oracle.New(), oracle.New()
	base := time.Date(2010, 9, 25, 0, 0, 0, 0, time.UTC)
	fileNo := 0
	for round := 0; round < cfg.Rounds; round++ {
		// The plan path does several durable commits per arrival
		// (primary, derived, reject, receipt batch), so a wider window
		// still lands cuts inside the seams.
		faulty := powerCut(cfg.Fault, cfg.Seed+int64(round)+1)
		srv, err := startServer(e12PlanConfig, server.Options{Root: root, ScanInterval: -1, FS: faulty})
		if err != nil {
			return nil, fmt.Errorf("e12 plan round %d: restart: %w", round, err)
		}
		faulty.SetCrashAfter(3 + rng.Int63n(60))
		for i := 0; i < cfg.PerRound; i++ {
			name := fmt.Sprintf("CPU_POLL%d_%s.txt", i%3+1,
				base.Add(time.Duration(fileNo)*time.Minute).Format("200601021504"))
			fileNo++
			res.Attempted++
			if err := srv.Deposit(name, []byte(planPayload(fileNo))); err == nil {
				res.Acked++
				p, d := crcOf(fmt.Sprintf("p,keep%032d\n", fileNo)), crcOf(fmt.Sprintf("d,route%032d\n", fileNo))
				staged.Deposit("staging/CPU/"+name, p, true)
				staged.Deposit("staging/DERIV/"+name, d, true)
				staged.Deposit("quarantine/_plan/CPU/"+name+".rejects", crcOf(fmt.Sprintf("bad%d\t# reject: columns 1 (want 2)\n", fileNo)), true)
				delivered.Deposit("in/CPU/"+name, p, true)
				delivered.Deposit("ind/DERIV/"+name, d, true)
			}
		}
		// Let in-flight deliveries race the countdown briefly.
		waitFor(150*time.Millisecond, faulty.Crashed)
		if faulty.Crashed() {
			res.MidOpCrashes++
		}
		srv.Stop()
		if err := faulty.Crash(); err != nil {
			return nil, fmt.Errorf("e12 plan round %d: crash rollback: %w", round, err)
		}
	}

	// Final clean run: reconcile, drain, then check record placement.
	srv, err := startServer(e12PlanConfig, server.Options{Root: root, ScanInterval: -1})
	if err != nil {
		return nil, fmt.Errorf("e12 plan final restart: %w", err)
	}
	defer srv.Stop()
	waitFor(60*time.Second, func() bool {
		return len(srv.Store().PendingFor("wh", []string{"CPU"})) == 0 &&
			len(srv.Store().PendingFor("whd", []string{"DERIV"})) == 0
	})

	// Provenance: every derived receipt's Origin must resolve to a
	// parent arrival — the WAL batch carried both or neither across
	// every cut.
	byID := make(map[uint64]receipts.FileMeta)
	for _, meta := range srv.Store().AllFiles() {
		byID[meta.ID] = meta
	}
	for _, meta := range byID {
		if len(meta.Feeds) == 1 && meta.Feeds[0] == "DERIV" {
			parent, ok := byID[meta.Origin]
			if !ok || parent.Feeds[0] != "CPU" {
				res.BrokenProvenance++
			}
		}
	}

	// Staged outputs and rejects: deterministic names, so exactly-once
	// is content equality. Delivered outputs: at-least-once
	// redelivery overwrites in place, so the final copy must equal the
	// expected bytes.
	res.RecordViolations = staged.Missing(holdsIn(root)) + res.BrokenProvenance
	res.Undelivered = delivered.Missing(holdsIn(root))
	return res, nil
}

// recoveryTime measures receipts.Open over a store holding n arrivals,
// with or without a checkpoint taken before the crash point.
func recoveryTime(n int, checkpoint bool) (time.Duration, error) {
	dir, err := tempRoot("e12-rec")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	store, err := receipts.Open(dir, receipts.Options{NoSync: true})
	if err != nil {
		return 0, err
	}
	for i := 0; i < n; i++ {
		if _, err := store.RecordArrival(receipts.FileMeta{
			Name: fmt.Sprintf("f%d", i), StagedPath: fmt.Sprintf("F/f%d", i),
			Feeds: []string{"F"}, Size: 128, Checksum: uint32(i), Arrived: time.Now(),
		}); err != nil {
			store.Close()
			return 0, err
		}
	}
	if checkpoint {
		if err := store.Checkpoint(); err != nil {
			store.Close()
			return 0, err
		}
	}
	if err := store.Close(); err != nil {
		return 0, err
	}
	start := time.Now()
	reopened, err := receipts.Open(dir, receipts.Options{NoSync: true})
	if err != nil {
		return 0, err
	}
	elapsed := time.Since(start)
	defer reopened.Close()
	if got := reopened.Stats().Files; got != n {
		return 0, fmt.Errorf("e12: recovered %d receipts, want %d", got, n)
	}
	return elapsed, nil
}
