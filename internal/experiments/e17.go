package experiments

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"time"

	"bistro/internal/oracle"
	"bistro/internal/server"
	"bistro/internal/sourceclient"
)

// E17SelfHealing closes the loop E16 left open: nobody calls the
// operator. Each round a shard owner replicates to a lease-watching
// standby node, dies by power cut, and the standby promotes ITSELF on
// lease expiry — then the dead node comes back from its stale disk,
// tries to keep acting as an owner, and must be fenced by the epoch
// the promotion minted; finally the revived node abandons its stale
// state and rejoins as the survivor's new standby through the online
// re-seed, restoring redundancy while the survivor keeps serving. The
// invariants are the self-healing contract: zero acked loss, zero
// duplicate subscriber writes, takeover detected within two lease
// intervals, every stale-epoch write refused and counted, and the
// rejoined standby caught up to the survivor's replication stream.
func E17SelfHealing(o Options) (Table, error) {
	t := Table{
		ID:     "E17",
		Title:  "kill-and-revive self-healing: lease failover, fencing, online re-seed",
		Claim:  "lease-based detection plus an epoch fence makes failover unattended and split-brain-safe: the standby promotes itself within two lease intervals, the revived stale owner's writes are refused, and it rejoins as a warm standby without pausing the survivor",
		Header: []string{"measure", "value"},
	}
	rounds := 12
	if o.Quick {
		rounds = 4
	}
	res, err := RunSelfHealingRounds(SelfHealingConfig{
		Rounds:   rounds,
		PerRound: 6,
		Seed:     1711,
	})
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows,
		[]string{"kill-and-revive rounds", fmt.Sprintf("%d", res.Rounds)},
		[]string{"deposits attempted", fmt.Sprintf("%d", res.Attempted)},
		[]string{"deposits acknowledged", fmt.Sprintf("%d", res.Acked)},
		[]string{"owner crashes mid-operation", fmt.Sprintf("%d", res.MidOpCrashes)},
		[]string{"acked arrivals lost after promotion", fmt.Sprintf("%d", res.LostAcked)},
		[]string{"replicated staging/DB divergences", fmt.Sprintf("%d", res.Divergences)},
		[]string{"takeovers beyond 2 lease intervals", fmt.Sprintf("%d", res.LateTakeovers)},
		[]string{"takeover detect+promote mean", ms(meanDuration(res.TakeoverDetects))},
		[]string{"takeover detect+promote max", ms(maxDuration(res.TakeoverDetects))},
		[]string{"stale-owner writes attempted", fmt.Sprintf("%d", res.StaleAttempts)},
		[]string{"stale-owner writes refused (fenced)", fmt.Sprintf("%d", res.StaleRefused)},
		[]string{"fenced frames counted by survivor", fmt.Sprintf("%d", res.FencedCounted)},
		[]string{"online re-seeds completed", fmt.Sprintf("%d", res.Reseeds)},
		[]string{"re-seeds failed or not caught up", fmt.Sprintf("%d", res.ReseedFailures)},
		[]string{"acked files missing at subscriber", fmt.Sprintf("%d", res.Undelivered)},
		[]string{"duplicate writes at subscriber", fmt.Sprintf("%d", res.AppDuplicates)},
		[]string{"re-sends suppressed by file-id dedup", fmt.Sprintf("%d", res.SuppressedDuplicates)},
	)
	if v := res.Violations(); v != 0 {
		return t, fmt.Errorf("e17: %d invariant violations: %+v", v, res)
	}
	t.Notes = append(t.Notes,
		"the standby starts a lease countdown at every replication frame or idle heartbeat from the owner; expiry alone triggers promotion — there is no operator and no external coordinator in the loop",
		"promotion bumps the cluster epoch; the revived owner still holds epoch 1, so its relayed writes are refused with a fencing nack and counted, turning split-brain into a visible, bounded event",
		"the revived node rejoins with a REJOIN handshake: the survivor re-seeds it with a fresh snapshot and staged-payload walk while continuing to serve, then flips it to live WAL shipping",
		"takeover time here includes failure detection (lease expiry), unlike E16's detach-to-ready measure — the two-lease-interval bound is the detection SLO")
	return t, nil
}

// SelfHealingConfig parameterizes the kill-and-revive harness.
type SelfHealingConfig struct {
	// Rounds is how many independent kill/promote/revive/rejoin cycles
	// to run.
	Rounds int
	// PerRound is how many files are deposited before the kill (the
	// same number again is deposited after the re-seed).
	PerRound int
	// Seed drives the per-round fault RNGs and crash points.
	Seed int64
	// Lease overrides the failover lease (default 700ms; the heartbeat
	// is always lease/5).
	Lease time.Duration
}

// SelfHealingResult aggregates the harness counters.
type SelfHealingResult struct {
	Rounds       int
	Attempted    int
	Acked        int
	MidOpCrashes int
	// LostAcked counts acknowledged arrivals missing or quarantined on
	// the promoted node — the headline zero-loss violation.
	LostAcked int
	// Divergences counts receipts on the promoted node whose replicated
	// staged payload is missing or corrupt.
	Divergences int
	// TakeoverDetects records kill-to-promoted time per round: failure
	// detection (lease expiry) plus the promotion itself.
	TakeoverDetects []time.Duration
	// LateTakeovers counts rounds where detection+promotion exceeded
	// two lease intervals — the unattended-takeover SLO violation.
	LateTakeovers int
	// StaleAttempts / StaleRefused count writes issued through the
	// revived stale owner; every one must be refused by the fence.
	StaleAttempts int
	StaleRefused  int
	// FencedCounted sums the survivor's bistro_cluster_fenced_total
	// deltas: refusals must be visible in metrics, not just to the
	// caller.
	FencedCounted int
	// Reseeds counts rounds where the revived node rejoined as a warm
	// standby and caught up to the survivor's replication high-water
	// mark; ReseedFailures counts rounds where it did not.
	Reseeds        int
	ReseedFailures int
	// Undelivered counts acked files absent (or wrong) in the
	// subscriber tree after the final drain.
	Undelivered int
	// AppDuplicates counts files written more than once at the
	// subscriber — must be zero.
	AppDuplicates int
	// SuppressedDuplicates counts re-sent deliveries absorbed by the
	// subscriber's file-id dedup (nonzero in some rounds by design).
	SuppressedDuplicates int
}

// Violations is the number of invariant breaches (zero for a correct
// self-healing path).
func (r *SelfHealingResult) Violations() int {
	return r.LostAcked + r.Divergences + r.Undelivered + r.AppDuplicates +
		r.LateTakeovers + (r.StaleAttempts - r.StaleRefused) + r.ReseedFailures
}

// RunSelfHealingRounds executes the kill/promote/revive/rejoin
// property loop. Each round is independent: fresh roots, standby node,
// and subscriber.
func RunSelfHealingRounds(cfg SelfHealingConfig) (*SelfHealingResult, error) {
	if cfg.Lease <= 0 {
		cfg.Lease = 700 * time.Millisecond
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &SelfHealingResult{Rounds: cfg.Rounds}
	for round := 0; round < cfg.Rounds; round++ {
		if err := e17Round(cfg, rng, res, round); err != nil {
			return nil, fmt.Errorf("e17 round %d: %w", round, err)
		}
	}
	return res, nil
}

// e17Round runs one full cycle and folds its counters into res.
func e17Round(cfg SelfHealingConfig, rng *rand.Rand, res *SelfHealingResult, round int) error {
	ownerName, survivorName, survivorFeed := shardRoles()
	f, err := newFailoverRound("e17")
	if err != nil {
		return err
	}
	defer f.close()
	defer func() {
		res.Attempted += f.ledger.Attempted()
		res.Acked += f.ledger.Acked()
	}()
	standbyAddr, err := pickAddr()
	if err != nil {
		return err
	}
	confText := f.configText(ownerName, survivorName, standbyAddr, fmt.Sprintf(`
    failover {
        lease %s
        heartbeat %s
        auto on
    }`, cfg.Lease, cfg.Lease/5), "CPU", survivorFeed)

	// The standby node: warm standby plus lease monitor plus the
	// server options it will promote itself with when the lease lapses.
	sn, err := server.StartStandbyNode(standbyAddr, f.dir("standby"), server.StandbyNodeOptions{
		Server: server.Options{
			Config: parseConfig(confText), NodeName: survivorName, Listen: f.survivorAddr,
			ScanInterval: -1, NoSync: true,
		},
		Failed: ownerName,
	})
	if err != nil {
		return err
	}
	defer sn.Close()

	// Kill the owner. Nobody is watching: the standby's lease monitor
	// must notice the silence and promote on its own.
	if err := f.killOwner(confText, cfg.Seed+int64(round)+1, rng, round, cfg.PerRound, &res.MidOpCrashes); err != nil {
		return err
	}
	var promoted *server.Server
	var perr error
	waitFor(15*time.Second, func() bool {
		var ok bool
		promoted, _, perr, ok = sn.Promoted()
		return ok
	})
	if perr != nil {
		return fmt.Errorf("automatic promotion: %w", perr)
	}
	if promoted == nil {
		return fmt.Errorf("standby never promoted itself after the kill")
	}
	defer promoted.Stop()
	detect := time.Since(f.killedAt)
	res.TakeoverDetects = append(res.TakeoverDetects, detect)
	if detect > 2*cfg.Lease {
		res.LateTakeovers++
	}
	// Acked loss and replicated-payload divergence on the promoted
	// store. Then the subscriber re-resolves: the epoch-preferring
	// Resolve lands it on the promoted survivor even while the old
	// address lingers dead.
	checkRecovered(f.ledger, promoted.Store(), f.dir("standby"))
	if err := f.cc.Subscribe(f.spec); err != nil {
		return fmt.Errorf("re-subscribe after promotion: %w", err)
	}
	res.LostAcked += f.ledger.Lost()
	res.Divergences += f.ledger.Diverged()

	// Revive the dead node from its stale disk. It still believes it
	// owns its shard at epoch 1; the survivor is at epoch 2. Writes it
	// relays through its outdated map must be refused by the fence.
	// A fresh ephemeral port: nothing needs the revived node at its old
	// address (the subscriber already re-resolved to the survivor), and
	// re-binding a just-freed port races other listeners on the host.
	revived, err := startServer(confText, server.Options{
		Root: f.dir("owner"), Listen: "127.0.0.1:0", ScanInterval: -1, NoSync: true,
	})
	if err != nil {
		return fmt.Errorf("revive stale owner: %w", err)
	}
	fencedBefore := promoted.Metrics().Counter("bistro_cluster_fenced_total", "").Value()
	src, err := sourceclient.Dial(revived.Addr(), "stale-poller", 2*time.Second)
	if err != nil {
		revived.Stop()
		return err
	}
	base := time.Date(2010, 9, 25, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 2; i++ {
		// A survivor-owned feed: the revived node forwards it relayed,
		// stamped with its stale epoch, straight into the fence.
		name := fmt.Sprintf("%s_POLL1_%s.txt", survivorFeed,
			base.Add(time.Duration(round*100+90+i)*time.Minute).Format("200601021504"))
		res.StaleAttempts++
		err := src.Upload(name, []byte("stale write"))
		if err != nil && strings.Contains(err.Error(), "fenced") {
			res.StaleRefused++
		}
	}
	src.Close()
	res.FencedCounted += int(promoted.Metrics().Counter("bistro_cluster_fenced_total", "").Value() - fencedBefore)

	// The revived node gives up its stale state and rejoins as the
	// survivor's new warm standby: fresh snapshot plus staged-payload
	// walk while the survivor keeps serving, then live shipping.
	revived.Stop()
	sn2, err := server.RejoinAsStandby(f.survivorAddr, "127.0.0.1:0", f.dir("rejoin"), server.StandbyNodeOptions{
		Server: server.Options{
			Config: parseConfig(confText), NodeName: ownerName,
			ScanInterval: -1, NoSync: true,
		},
		Failed: survivorName,
	})
	if err != nil {
		res.ReseedFailures++
		return nil
	}
	defer sn2.Close()

	// Post-reseed traffic: acked at the survivor means shipped to the
	// rejoined standby.
	f.deposit(promoted, round, cfg.PerRound, 50, "post-reseed")
	if waitFor(15*time.Second, func() bool {
		node := promoted.Status().Node
		staged, _ := dirStats(filepath.Join(f.dir("rejoin"), "staging"))
		return node.ReplicationOK != nil && *node.ReplicationOK &&
			node.Standby == sn2.Standby().Addr() &&
			node.ReplicationHW == sn2.Standby().HW() && node.ReplicationHW > 0 && staged > 0
	}) {
		res.Reseeds++
	} else {
		res.ReseedFailures++
	}

	// Final drain and exactly-once accounting across the whole cycle.
	res.Undelivered += f.drain(promoted)
	res.AppDuplicates += f.ledger.Duplicates(oracle.Push)
	res.SuppressedDuplicates += f.daemon.DuplicatesSuppressed()
	return nil
}
