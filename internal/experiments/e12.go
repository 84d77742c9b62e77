package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"bistro/internal/config"
	"bistro/internal/delivery"
	"bistro/internal/diskfault"
	"bistro/internal/normalize"
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
	replay, err := recoveryTime(n, false)
	if err != nil {
		return t, err
	}
	ckpt, err := recoveryTime(n, true)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows,
		[]string{fmt.Sprintf("recovery time, %d receipts, full WAL replay", n), ms(replay)},
		[]string{fmt.Sprintf("recovery time, %d receipts, after checkpoint", n), ms(ckpt)},
	)
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

const e12Config = `
feed CPU { pattern "CPU_POLL%i_%Y%m%d%H%M.txt" }
subscriber wh { dest "in" subscribe CPU }
`

// e12ConfigText renders the harness configuration for the requested
// pipeline shape. The serial shape is the historical e12Config text.
func e12ConfigText(cfg CrashRoundsConfig) string {
	if cfg.Workers <= 1 && !cfg.GroupCommit {
		return e12Config
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	text := fmt.Sprintf("ingest {\n    workers %d\n", workers)
	if cfg.GroupCommit {
		// A small window so every round crosses many flush boundaries.
		text += "    group_commit { max_batch 8 max_delay 1ms }\n"
	}
	text += "}\n"
	if cfg.Workers > 1 {
		return text + `
feed CPU { pattern "src%i/CPU_POLL%i_%Y%m%d%H%M.txt" }
subscriber wh { dest "in" subscribe CPU }
`
	}
	return text + e12Config
}

// RunCrashRounds executes the crash-restart property loop and checks
// the invariants after every restart. It is exported (within the
// experiments package's test surface) so a test can rerun it with a
// lying fsync and assert the violations become visible.
func RunCrashRounds(cfg CrashRoundsConfig) (*CrashRoundsResult, error) {
	root, err := os.MkdirTemp("", "bistro-e12-*")
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
	acked := make(map[string]string) // original name -> payload
	var mu sync.Mutex
	deliveredEvents := 0
	onEvent := func(ev delivery.Event) {
		if ev.Kind == delivery.EvDelivered {
			mu.Lock()
			deliveredEvents++
			mu.Unlock()
		}
	}

	base := time.Date(2010, 9, 25, 0, 0, 0, 0, time.UTC)
	fileNo := 0
	for round := 0; round < cfg.Rounds; round++ {
		dfOpts := cfg.Fault
		dfOpts.Seed = cfg.Seed + int64(round) + 1
		dfOpts.PowerCut = true
		dfOpts.TornWrites = true
		// NoSync below the fault layer: the simulation tracks durability
		// itself, so real fsyncs would only slow the harness down.
		faulty := diskfault.NewFaulty(diskfault.NoSync(diskfault.OS()), dfOpts)

		srv, err := newE12Server(root, confText, faulty, onEvent)
		if err != nil {
			return nil, fmt.Errorf("e12 round %d: restart: %w", round, err)
		}
		if err := checkInvariants(srv, root, acked, res); err != nil {
			srv.Stop()
			return nil, err
		}

		// Arm the cut somewhere inside this round's operation stream,
		// then feed deposits; ingest and delivery race the countdown.
		faulty.SetCrashAfter(3 + rng.Int63n(45))
		if cfg.Workers > 1 {
			// Sharded shape: three sources deposit concurrently into
			// their own directories, in per-source order, racing the
			// armed cut across shard and flush-window boundaries.
			const nSrc = 3
			type dep struct{ name, payload string }
			plan := make([][]dep, nSrc)
			for i := 0; i < cfg.PerRound; i++ {
				s := i % nSrc
				name := fmt.Sprintf("src%d/CPU_POLL%d_%s.txt", s+1, s+1,
					base.Add(time.Duration(fileNo)*time.Minute).Format("200601021504"))
				fileNo++
				plan[s] = append(plan[s], dep{name,
					fmt.Sprintf("round=%d file=%d payload=%032d", round, fileNo, fileNo)})
			}
			var wg sync.WaitGroup
			for s := range plan {
				wg.Add(1)
				go func(deps []dep) {
					defer wg.Done()
					for _, d := range deps {
						err := srv.Deposit(d.name, []byte(d.payload))
						mu.Lock()
						res.Attempted++
						if err == nil {
							res.Acked++
							acked[d.name] = d.payload
						}
						mu.Unlock()
					}
				}(plan[s])
			}
			wg.Wait()
		} else {
			for i := 0; i < cfg.PerRound; i++ {
				name := fmt.Sprintf("CPU_POLL%d_%s.txt", i%3+1, base.Add(time.Duration(fileNo)*time.Minute).Format("200601021504"))
				fileNo++
				payload := fmt.Sprintf("round=%d file=%d payload=%032d", round, fileNo, fileNo)
				res.Attempted++
				if err := srv.Deposit(name, []byte(payload)); err == nil {
					res.Acked++
					acked[name] = payload
				}
			}
		}
		// Let in-flight deliveries race the countdown briefly.
		deadline := time.Now().Add(300 * time.Millisecond)
		for time.Now().Before(deadline) && !faulty.Crashed() {
			if srv.Store().DeliveredCount("wh") >= len(acked) {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		if faulty.Crashed() {
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
	srv, err := newE12Server(root, confText, diskfault.OS(), onEvent)
	if err != nil {
		return nil, fmt.Errorf("e12 final restart: %w", err)
	}
	defer srv.Stop()
	if err := checkInvariants(srv, root, acked, res); err != nil {
		return nil, err
	}
	st := srv.Store().Stats()
	res.Quarantined = st.Quarantined
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if len(srv.Store().PendingFor("wh", []string{"CPU"})) == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for name, payload := range acked {
		got, err := os.ReadFile(filepath.Join(root, "in", "CPU", name))
		if err != nil || string(got) != payload {
			res.Undelivered++
		}
	}
	if daemon != nil {
		res.Resent = daemon.DuplicatesSuppressed()
	}
	mu.Lock()
	res.Duplicates = deliveredEvents - (st.Files - st.Quarantined)
	if res.Duplicates < 0 {
		res.Duplicates = 0
	}
	mu.Unlock()
	return res, nil
}

func newE12Server(root, confText string, fsys diskfault.FS, onEvent func(delivery.Event)) (*server.Server, error) {
	cfg, err := config.Parse(confText)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Options{
		Config: cfg, Root: root, ScanInterval: -1,
		FS: fsys, OnEvent: onEvent,
	})
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		srv.Stop()
		return nil, err
	}
	return srv, nil
}

// checkInvariants runs after every restart (reconcile already ran
// inside Start): every acked arrival must be present, unquarantined,
// and its staged payload intact; no surviving receipt may point at a
// missing or corrupt staged file.
func checkInvariants(srv *server.Server, root string, acked map[string]string, res *CrashRoundsResult) error {
	store := srv.Store()
	byName := make(map[string]receipts.FileMeta)
	res.Reingested = 0
	for _, meta := range store.AllFiles() {
		byName[meta.Name] = meta
		if _, ok := acked[meta.Name]; !ok {
			// A receipt the depositor never got an ack for: either the
			// commit raced the cut, or reconcile re-ingested an orphan.
			res.Reingested++
		}
		if store.Quarantined(meta.ID) || store.IsExpired(meta.ID) {
			continue
		}
		staged := filepath.Join(root, "staging", filepath.FromSlash(meta.StagedPath))
		crc, size, err := normalize.ChecksumFile(staged)
		if err != nil || size != meta.Size || crc != meta.Checksum {
			res.Divergences++
		}
	}
	for name := range acked {
		meta, ok := byName[name]
		if !ok || store.Quarantined(meta.ID) {
			res.LostAcked++
		}
	}
	return nil
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
// up as drift from the expected bytes.
func RunPlanCrashRounds(cfg CrashRoundsConfig) (*PlanCrashResult, error) {
	root, err := os.MkdirTemp("", "bistro-e12p-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &PlanCrashResult{Rounds: cfg.Rounds}
	acked := make(map[string]int) // deposit name -> unique payload number
	base := time.Date(2010, 9, 25, 0, 0, 0, 0, time.UTC)
	fileNo := 0
	for round := 0; round < cfg.Rounds; round++ {
		dfOpts := cfg.Fault
		dfOpts.Seed = cfg.Seed + int64(round) + 1
		dfOpts.PowerCut = true
		dfOpts.TornWrites = true
		faulty := diskfault.NewFaulty(diskfault.NoSync(diskfault.OS()), dfOpts)
		srv, err := newE12Server(root, e12PlanConfig, faulty, nil)
		if err != nil {
			return nil, fmt.Errorf("e12 plan round %d: restart: %w", round, err)
		}
		// The plan path does several durable commits per arrival
		// (primary, derived, reject, receipt batch), so a wider window
		// still lands cuts inside the seams.
		faulty.SetCrashAfter(3 + rng.Int63n(60))
		for i := 0; i < cfg.PerRound; i++ {
			name := fmt.Sprintf("CPU_POLL%d_%s.txt", i%3+1,
				base.Add(time.Duration(fileNo)*time.Minute).Format("200601021504"))
			fileNo++
			res.Attempted++
			if err := srv.Deposit(name, []byte(planPayload(fileNo))); err == nil {
				res.Acked++
				acked[name] = fileNo
			}
		}
		// Let in-flight deliveries race the countdown briefly.
		deadline := time.Now().Add(150 * time.Millisecond)
		for time.Now().Before(deadline) && !faulty.Crashed() {
			time.Sleep(2 * time.Millisecond)
		}
		if faulty.Crashed() {
			res.MidOpCrashes++
		}
		srv.Stop()
		if err := faulty.Crash(); err != nil {
			return nil, fmt.Errorf("e12 plan round %d: crash rollback: %w", round, err)
		}
	}

	// Final clean run: reconcile, drain, then check record placement.
	srv, err := newE12Server(root, e12PlanConfig, diskfault.OS(), nil)
	if err != nil {
		return nil, fmt.Errorf("e12 plan final restart: %w", err)
	}
	defer srv.Stop()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if len(srv.Store().PendingFor("wh", []string{"CPU"})) == 0 &&
			len(srv.Store().PendingFor("whd", []string{"DERIV"})) == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

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

	for name, n := range acked {
		wantP := fmt.Sprintf("p,keep%032d\n", n)
		wantD := fmt.Sprintf("d,route%032d\n", n)
		wantR := fmt.Sprintf("bad%d\t# reject: columns 1 (want 2)\n", n)
		// Staged outputs: deterministic names, so exactly-once is
		// content equality.
		if got, err := os.ReadFile(filepath.Join(root, "staging", "CPU", name)); err != nil || string(got) != wantP {
			res.RecordViolations++
		}
		if got, err := os.ReadFile(filepath.Join(root, "staging", "DERIV", name)); err != nil || string(got) != wantD {
			res.RecordViolations++
		}
		if got, err := os.ReadFile(filepath.Join(root, "quarantine", "_plan", "CPU", name+".rejects")); err != nil || string(got) != wantR {
			res.RecordViolations++
		}
		// Delivered outputs: at-least-once redelivery overwrites in
		// place, so the final copy must equal the expected bytes.
		if got, err := os.ReadFile(filepath.Join(root, "in", "CPU", name)); err != nil || string(got) != wantP {
			res.Undelivered++
		}
		if got, err := os.ReadFile(filepath.Join(root, "ind", "DERIV", name)); err != nil || string(got) != wantD {
			res.Undelivered++
		}
	}
	res.RecordViolations += res.BrokenProvenance
	return res, nil
}

// recoveryTime measures receipts.Open over a store holding n arrivals,
// with or without a checkpoint taken before the crash point.
func recoveryTime(n int, checkpoint bool) (time.Duration, error) {
	dir, err := os.MkdirTemp("", "bistro-e12-rec-*")
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
