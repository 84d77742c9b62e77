package experiments

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync/atomic"
	"time"

	"bistro/internal/cluster"
	"bistro/internal/diskfault"
	"bistro/internal/oracle"
	"bistro/internal/server"
)

// E16Failover is the clustered extension of the E12 crash property
// harness: a shard owner replicates its receipt WAL synchronously to a
// warm standby, the owner's disk is killed mid-traffic (power-cut
// semantics, no clean shutdown of the storage path), the standby is
// promoted, and the subscriber re-resolves the feed through the
// surviving node. The invariants are the failover contract: every
// deposit the owner acknowledged must survive on the promoted node —
// present, unquarantined, payload intact, and delivered — with zero
// application-visible duplicate writes at the subscriber (re-sends
// from the two-generals window are suppressed by file-id dedup). The
// harness also measures takeover time (detach → promoted node ready).
func E16Failover(o Options) (Table, error) {
	t := Table{
		ID:     "E16",
		Title:  "kill -9 shard failover to a WAL-shipped warm standby",
		Claim:  "synchronous WAL shipping means an owner crash loses no acknowledged arrival: the promoted standby replays the shipped WAL through the normal reconciliation path and serves the shard with exactly-once application at subscribers",
		Header: []string{"measure", "value"},
	}
	rounds := 12
	perRound := 8
	if o.Quick {
		rounds = 6
	}
	res, err := RunFailoverRounds(FailoverRoundsConfig{
		Rounds:   rounds,
		PerRound: perRound,
		Seed:     1611,
	})
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows,
		[]string{"failover rounds", fmt.Sprintf("%d", res.Rounds)},
		[]string{"deposits attempted", fmt.Sprintf("%d", res.Attempted)},
		[]string{"deposits acknowledged", fmt.Sprintf("%d", res.Acked)},
		[]string{"owner crashes mid-operation", fmt.Sprintf("%d", res.MidOpCrashes)},
		[]string{"acked arrivals lost after promotion", fmt.Sprintf("%d", res.LostAcked)},
		[]string{"replicated staging/DB divergences", fmt.Sprintf("%d", res.Divergences)},
		[]string{"acked files missing at subscriber", fmt.Sprintf("%d", res.Undelivered)},
		[]string{"duplicate writes at subscriber", fmt.Sprintf("%d", res.AppDuplicates)},
		[]string{"re-sends suppressed by file-id dedup", fmt.Sprintf("%d", res.SuppressedDuplicates)},
		[]string{"takeover time mean", ms(meanDuration(res.Takeovers))},
		[]string{"takeover time max", ms(maxDuration(res.Takeovers))},
	)
	if v := res.Violations(); v != 0 {
		return t, fmt.Errorf("e16: %d invariant violations: %+v", v, res)
	}
	t.Notes = append(t.Notes,
		"every commit ships to the standby before the depositor's ack releases, so acked-implies-replicated holds unconditionally (a down standby write-blocks the owner instead)",
		"promotion opens the standby's shipped checkpoint+WAL as a full server: replay and startup reconciliation are the same code path a crash-restart uses",
		"the subscriber re-resolves the feed through any surviving node and re-subscribes; deliveries acked by the daemon whose receipt commit died with the owner are re-sent and suppressed by file-id dedup",
		"takeover time is detach-to-ready: WAL replay, reconciliation, and shard-map promotion, excluding any failure-detection delay")
	return t, nil
}

// FailoverRoundsConfig parameterizes the failover property harness.
type FailoverRoundsConfig struct {
	// Rounds is how many independent kill/promote cycles to run.
	Rounds int
	// PerRound is how many files are deposited per round.
	PerRound int
	// Seed drives the per-round fault RNGs and crash points.
	Seed int64
	// GroupCommit enables the WAL flush window on the owner (small
	// batch/delay), so crashes land inside group-commit windows and the
	// shipped-batch boundary is exercised.
	GroupCommit bool
}

// FailoverRoundsResult aggregates the harness counters.
type FailoverRoundsResult struct {
	Rounds       int
	Attempted    int
	Acked        int
	MidOpCrashes int
	// LostAcked counts acknowledged arrivals missing from the promoted
	// node's receipt DB, or quarantined there — the headline zero-loss
	// violation.
	LostAcked int
	// Divergences counts receipts on the promoted node whose replicated
	// staged payload is missing or corrupt after reconciliation.
	Divergences int
	// Undelivered counts acked files absent (or wrong) in the
	// subscriber tree after the promoted node drained its queues.
	Undelivered int
	// AppDuplicates counts files written more than once at the
	// subscriber — must be zero (exactly-once application).
	AppDuplicates int
	// SuppressedDuplicates counts re-sent deliveries the subscriber's
	// file-id dedup acknowledged without rewriting (the at-least-once
	// tail the dedup absorbs; nonzero in some rounds by design).
	SuppressedDuplicates int
	// Takeovers records each round's promotion time (detach → ready).
	Takeovers []time.Duration
}

// Violations is the number of invariant breaches (zero for a correct
// failover path).
func (r *FailoverRoundsResult) Violations() int {
	return r.LostAcked + r.Divergences + r.Undelivered + r.AppDuplicates
}

// pickAddr reserves a localhost address for the static topology, which
// needs the protocol addresses before either server exists. It draws
// ports from just below the kernel's ephemeral range, checking that
// each binds: a port a ":0" bind was handed and gave back can go to any
// concurrent ":0" listener before the server binds it, one below the
// range cannot. Calls walk the window from a per-process start, so one
// process never draws a port twice.
func pickAddr() (string, error) {
	lo := 32768 // Linux's default floor
	if b, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range"); err == nil {
		fmt.Sscan(string(b), &lo)
	}
	window := min(8192, lo-1024)
	for range max(window, 0) {
		port := lo - 1 - (os.Getpid()+int(nextPort.Add(1)))%window
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		if ln, err := net.Listen("tcp", addr); err == nil {
			ln.Close()
			return addr, nil
		}
	}
	return "", fmt.Errorf("no free port below the ephemeral range (%d)", lo)
}

// nextPort counts pickAddr's draws.
var nextPort atomic.Int64

// RunFailoverRounds executes the kill/promote property loop. Each
// round is independent: fresh owner, standby, and subscriber; a seeded
// power cut kills the owner's storage mid-traffic; the standby is
// promoted and must satisfy the zero-loss invariants.
func RunFailoverRounds(cfg FailoverRoundsConfig) (*FailoverRoundsResult, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &FailoverRoundsResult{Rounds: cfg.Rounds}
	for round := 0; round < cfg.Rounds; round++ {
		if err := e16Round(cfg, rng, res, round); err != nil {
			return nil, fmt.Errorf("e16 round %d: %w", round, err)
		}
	}
	return res, nil
}

// e16Round runs one kill/promote cycle and folds its counters
// into res.
func e16Round(cfg FailoverRoundsConfig, rng *rand.Rand, res *FailoverRoundsResult, round int) error {
	f, err := newFailoverRound("e16")
	if err != nil {
		return err
	}
	defer f.close()
	// Warm standby for the owner's shard.
	standby, err := cluster.StartStandby("127.0.0.1:0", cluster.StandbyOptions{
		Root: f.dir("standby"), FS: diskfault.NoSync(diskfault.OS()),
	})
	if err != nil {
		return err
	}
	defer standby.Close()

	ownerName, survivorName, _ := shardRoles()
	confText := f.configText(ownerName, survivorName, standby.Addr(), "", "CPU")
	if cfg.GroupCommit {
		confText = "ingest {\n    group_commit { max_batch 8 max_delay 1ms }\n}\n" + confText
	}
	if err := f.killOwner(confText, cfg.Seed+int64(round)+1, rng, round, cfg.PerRound, &res.MidOpCrashes); err != nil {
		return err
	}

	// Promote the standby into the surviving node.
	promoted, takeover, err := server.PromoteStandby(standby, ownerName, server.Options{
		Config: parseConfig(confText), NodeName: survivorName, Listen: f.survivorAddr,
		ScanInterval: -1, NoSync: true,
	})
	if err != nil {
		return fmt.Errorf("promote: %w", err)
	}
	defer promoted.Stop()
	res.Takeovers = append(res.Takeovers, takeover)
	// Every acked arrival present and unquarantined on the promoted
	// store, its replicated payload intact; then the subscriber
	// re-resolves through the survivor.
	checkRecovered(f.ledger, promoted.Store(), standby.Root())
	if err := f.cc.Subscribe(f.spec); err != nil {
		return fmt.Errorf("re-subscribe after promotion: %w", err)
	}
	res.Undelivered += f.drain(promoted)
	res.Attempted += f.ledger.Attempted()
	res.Acked += f.ledger.Acked()
	res.LostAcked += f.ledger.Lost()
	res.Divergences += f.ledger.Diverged()
	res.AppDuplicates += f.ledger.Duplicates(oracle.Push)
	res.SuppressedDuplicates += f.daemon.DuplicatesSuppressed()
	return nil
}
