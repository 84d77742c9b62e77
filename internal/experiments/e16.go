package experiments

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"bistro/internal/cluster"
	"bistro/internal/config"
	"bistro/internal/diskfault"
	"bistro/internal/normalize"
	"bistro/internal/server"
	"bistro/internal/subclient"
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

// e16Nodes fixes the two-node topology and reports which node the
// harness feed hashes to (the shard owner the harness will kill) and
// which survives. Placeholder addresses are fine: ownership depends
// only on names and the vnode count.
func e16Nodes() (owner, survivor string) {
	sm, err := cluster.NewShardMap(cluster.Topology{Nodes: []cluster.Node{
		{Name: "a", Addr: "x"}, {Name: "b", Addr: "x"},
	}})
	if err != nil {
		panic(err)
	}
	owner = sm.Owner("CPU").Name
	if owner == "a" {
		return "a", "b"
	}
	return "b", "a"
}

// e16ConfigText renders the shared cluster configuration: both nodes,
// the standby attached to the feed's owner, one feed. The same text
// runs the owner (self) and the promoted survivor (NodeName override).
func e16ConfigText(owner, survivor, ownerAddr, survivorAddr, standbyAddr string, groupCommit bool) string {
	text := ""
	if groupCommit {
		text += "ingest {\n    group_commit { max_batch 8 max_delay 1ms }\n}\n"
	}
	text += fmt.Sprintf(`
cluster {
    self "%s"
    node "%s" {
        addr "%s"
        standby "%s"
    }
    node "%s" {
        addr "%s"
    }
}
feed CPU { pattern "CPU_POLL%%i_%%Y%%m%%d%%H%%M.txt" }
`, owner, owner, ownerAddr, standbyAddr, survivor, survivorAddr)
	return text
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
		if err := failoverRound(cfg, rng, res, round); err != nil {
			return nil, fmt.Errorf("e16 round %d: %w", round, err)
		}
	}
	return res, nil
}

// failoverRound runs one kill/promote cycle and folds its counters
// into res.
func failoverRound(cfg FailoverRoundsConfig, rng *rand.Rand, res *FailoverRoundsResult, round int) error {
	rootA, err := os.MkdirTemp("", "bistro-e16-owner-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(rootA)
	rootB, err := os.MkdirTemp("", "bistro-e16-standby-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(rootB)
	subDir, err := os.MkdirTemp("", "bistro-e16-sub-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(subDir)

	// Subscriber daemon with file-id dedup: re-sends after promotion
	// must not become duplicate writes.
	daemon, err := subclient.Start("127.0.0.1:0", subclient.Options{
		Name: "wh", DestDir: subDir, DedupByID: true,
	})
	if err != nil {
		return err
	}
	defer daemon.Stop()

	// Warm standby for the owner's shard.
	standby, err := cluster.StartStandby("127.0.0.1:0", cluster.StandbyOptions{
		Root: rootB, FS: diskfault.NoSync(diskfault.OS()),
	})
	if err != nil {
		return err
	}
	defer standby.Close()

	ownerName, survivorName := e16Nodes()
	ownerAddr, err := pickAddr()
	if err != nil {
		return err
	}
	survivorAddr, err := pickAddr()
	if err != nil {
		return err
	}
	confText := e16ConfigText(ownerName, survivorName, ownerAddr, survivorAddr, standby.Addr(), cfg.GroupCommit)
	ownerCfg, err := config.Parse(confText)
	if err != nil {
		return err
	}

	// The owner's storage runs over the power-cut filesystem; the cut
	// is armed mid-stream below. NoSync under the fault layer: the
	// simulation tracks durability itself.
	faulty := diskfault.NewFaulty(diskfault.NoSync(diskfault.OS()), diskfault.Options{
		Seed: cfg.Seed + int64(round) + 1, PowerCut: true, TornWrites: true,
	})
	owner, err := server.New(server.Options{
		Config: ownerCfg, Root: rootA, Listen: ownerAddr,
		ScanInterval: -1, FS: faulty,
	})
	if err != nil {
		return err
	}
	if err := owner.Start(); err != nil {
		owner.Stop()
		return err
	}

	// Subscribe through the cluster client: resolve the feed's owner
	// via any configured node, then subscribe there.
	cc := &subclient.Cluster{Nodes: []string{ownerAddr, survivorAddr}, Timeout: 2 * time.Second}
	spec := subclient.SubscribeSpec{
		Name: "wh", Host: daemon.Addr(), Dest: "in", Feeds: []string{"CPU"},
	}
	if err := cc.Subscribe(spec); err != nil {
		owner.Stop()
		return fmt.Errorf("subscribe at owner: %w", err)
	}

	// Deposit with a seeded power cut armed somewhere in the stream;
	// ingest, replication, and delivery race the countdown.
	acked := make(map[string]string)
	base := time.Date(2010, 9, 25, 0, 0, 0, 0, time.UTC)
	faulty.SetCrashAfter(3 + rng.Int63n(45))
	for i := 0; i < cfg.PerRound; i++ {
		name := fmt.Sprintf("CPU_POLL%d_%s.txt", i%3+1,
			base.Add(time.Duration(round*cfg.PerRound+i)*time.Minute).Format("200601021504"))
		payload := fmt.Sprintf("round=%d file=%d payload=%032d", round, i, i)
		res.Attempted++
		if err := owner.Deposit(name, []byte(payload)); err == nil {
			res.Acked++
			acked[name] = payload
		}
	}
	// Let in-flight deliveries race the countdown briefly.
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) && !faulty.Crashed() {
		if owner.Store().DeliveredCount("wh") >= len(acked) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if faulty.Crashed() {
		res.MidOpCrashes++
	}
	// Kill the owner: stop the process and discard its disk wholesale
	// (the deferred RemoveAll). Nothing of the owner's storage survives
	// into the promoted node — only what was shipped.
	owner.Stop()

	// Promote the standby into the surviving node.
	promotedCfg, err := config.Parse(confText)
	if err != nil {
		return err
	}
	promoted, takeover, err := server.PromoteStandby(standby, ownerName, server.Options{
		Config: promotedCfg, NodeName: survivorName, Listen: survivorAddr,
		ScanInterval: -1, NoSync: true,
	})
	if err != nil {
		return fmt.Errorf("promote: %w", err)
	}
	defer promoted.Stop()
	res.Takeovers = append(res.Takeovers, takeover)

	// Invariants on the promoted store: every acked arrival present,
	// unquarantined, replicated payload intact.
	store := promoted.Store()
	byName := make(map[string]bool)
	for _, meta := range store.AllFiles() {
		byName[meta.Name] = !store.Quarantined(meta.ID)
		if store.Quarantined(meta.ID) || store.IsExpired(meta.ID) {
			continue
		}
		staged := filepath.Join(standby.Root(), "staging", filepath.FromSlash(meta.StagedPath))
		crc, size, err := normalize.ChecksumFile(staged)
		if err != nil || size != meta.Size || crc != meta.Checksum {
			res.Divergences++
		}
	}
	for name := range acked {
		if !byName[name] {
			res.LostAcked++
		}
	}

	// The subscriber re-resolves through the survivor (the owner's
	// address is dead) and re-subscribes; backfill drains everything
	// the crash interrupted.
	if err := cc.Subscribe(spec); err != nil {
		return fmt.Errorf("re-subscribe after promotion: %w", err)
	}
	drain := time.Now().Add(30 * time.Second)
	for time.Now().Before(drain) {
		if len(store.PendingFor("wh", []string{"CPU"})) == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for name, payload := range acked {
		got, err := os.ReadFile(filepath.Join(subDir, "in", "CPU", name))
		if err != nil || string(got) != payload {
			res.Undelivered++
		}
	}
	writes := make(map[string]int)
	for _, n := range daemon.Received() {
		writes[n]++
	}
	for _, c := range writes {
		if c > 1 {
			res.AppDuplicates += c - 1
		}
	}
	res.SuppressedDuplicates += daemon.DuplicatesSuppressed()
	return nil
}

func meanDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

func maxDuration(ds []time.Duration) time.Duration {
	var max time.Duration
	for _, d := range ds {
		if d > max {
			max = d
		}
	}
	return max
}
