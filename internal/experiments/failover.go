package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"path"
	"path/filepath"
	"time"

	"bistro/internal/cluster"
	"bistro/internal/diskfault"
	"bistro/internal/oracle"
	"bistro/internal/server"
	"bistro/internal/subclient"
)

// shardRoles fixes the two-node topology: the owner is the node feed
// CPU hashes to (the node a round kills), the survivor is the other,
// and survivorFeed is a feed the survivor owns (where E17's revived
// stale owner runs into the fence). Placeholder addresses are fine:
// ownership depends only on names and the vnode count.
func shardRoles() (owner, survivor, survivorFeed string) {
	sm, err := cluster.NewShardMap(cluster.Topology{Nodes: []cluster.Node{
		{Name: "a", Addr: "x"}, {Name: "b", Addr: "x"},
	}})
	if err != nil {
		panic(err)
	}
	owner, survivor = "a", "b"
	if sm.Owner("CPU").Name == "b" {
		owner, survivor = "b", "a"
	}
	for _, f := range []string{"BPS", "MEM", "NET", "DISK", "FLOW"} {
		if sm.Owner(f).Name == survivor {
			return owner, survivor, f
		}
	}
	panic("experiments: no candidate feed hashes to the survivor")
}

// failoverRound is the fixture one E16 or E17 round runs on: a
// temporary root (the owner's, standbys' and subscriber's directories
// under it), a subscriber daemon with file-id dedup, the two node
// addresses the static topology needs before either server exists, the
// cluster client that subscribes the daemon to the owner's feed (CPU),
// and the round's ledger.
type failoverRound struct {
	root                    string
	daemon                  *subclient.Daemon
	ownerAddr, survivorAddr string
	cc                      *subclient.Cluster
	spec                    subclient.SubscribeSpec
	ledger                  *oracle.Ledger
	killedAt                time.Time // when killOwner began to stop the owner
}

func newFailoverRound(name string) (*failoverRound, error) {
	root, err := tempRoot(name)
	if err != nil {
		return nil, err
	}
	f := &failoverRound{root: root, ledger: oracle.New()}
	// File-id dedup: re-sends after promotion must not become
	// duplicate writes.
	f.daemon, err = subclient.Start("127.0.0.1:0", subclient.Options{Name: "wh", DestDir: f.dir("sub"), DedupByID: true})
	if err == nil {
		f.ownerAddr, err = pickAddr()
	}
	if err == nil {
		f.survivorAddr, err = pickAddr()
	}
	if err != nil {
		f.close()
		return nil, err
	}
	f.cc = &subclient.Cluster{Nodes: []string{f.ownerAddr, f.survivorAddr}, Timeout: 2 * time.Second}
	f.spec = subclient.SubscribeSpec{Name: "wh", Host: f.daemon.Addr(), Dest: "in", Feeds: []string{"CPU"}}
	return f, nil
}

// configText renders the configuration every node of the round runs
// (NodeName overrides self): both nodes, the standby attached to the
// owner, extra inside the cluster block, and one feed per name.
func (f *failoverRound) configText(owner, survivor, standbyAddr, extra string, feeds ...string) string {
	text := fmt.Sprintf(`
cluster {
    self %q%s
    node %q {
        addr %q
        standby %q
    }
    node %q {
        addr %q
    }
}
`, owner, extra, owner, f.ownerAddr, standbyAddr, survivor, f.survivorAddr)
	for _, feed := range feeds {
		text += fmt.Sprintf("feed %s { pattern \"%s_POLL%%i_%%Y%%m%%d%%H%%M.txt\" }\n", feed, feed)
	}
	return text
}

// dir names a directory under the round's root.
func (f *failoverRound) dir(name string) string { return filepath.Join(f.root, name) }

func (f *failoverRound) close() {
	if f.daemon != nil {
		f.daemon.Stop()
	}
	os.RemoveAll(f.root)
}

// killOwner runs the shard owner on confText over the power-cut
// filesystem, subscribes the daemon at it through the cluster client,
// and deposits perRound files with a seeded cut armed, letting
// ingest, replication and delivery race the countdown. Then it stops
// the owner and discards its disk: nothing of its storage survives
// into a promoted node but what it shipped. It reports whether the cut
// fell mid-round, by counting it in midOp.
func (f *failoverRound) killOwner(confText string, seed int64, rng *rand.Rand, round, perRound int, midOp *int) error {
	faulty := powerCut(diskfault.Options{}, seed)
	owner, err := startServer(confText, server.Options{
		Root: f.dir("owner"), Listen: f.ownerAddr, ScanInterval: -1, FS: faulty,
	})
	if err != nil {
		return err
	}
	defer owner.Stop()
	if err := f.cc.Subscribe(f.spec); err != nil {
		return fmt.Errorf("subscribe at owner: %w", err)
	}
	faulty.SetCrashAfter(3 + rng.Int63n(45))
	f.deposit(owner, round, perRound, 0, "file")
	if raceTheCut(owner, faulty, f.ledger, "wh", 300*time.Millisecond) {
		*midOp++
	}
	f.killedAt = time.Now()
	return nil
}

// deposit deposits n files of feed CPU through srv, the first
// at minute from of the round; tag keeps the payloads of later batches
// apart.
func (f *failoverRound) deposit(srv *server.Server, round, n, from int, tag string) {
	base := time.Date(2010, 9, 25, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		stamp := base.Add(time.Duration(round*100+from+i) * time.Minute).Format("200601021504")
		deposit(srv, f.ledger, fmt.Sprintf("CPU_POLL%d_%s.txt", i%3+1, stamp),
			fmt.Sprintf("round=%d %s=%d payload=%032d", round, tag, i, i))
	}
}

// drain waits until srv has delivered everything pending, then feeds
// the ledger every write the daemon made and returns the acked files
// missing (or wrong) in its destination tree.
func (f *failoverRound) drain(srv *server.Server) int {
	waitFor(30*time.Second, func() bool { return len(srv.Store().PendingFor("wh", []string{"CPU"})) == 0 })
	for _, name := range f.daemon.Received() {
		f.ledger.Deliver(oracle.Push, "wh", path.Base(name), 0)
	}
	return f.ledger.Missing(holdsIn(filepath.Join(f.dir("sub"), "in", "CPU")))
}
