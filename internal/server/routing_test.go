package server

import (
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"bistro/internal/cluster"
	"bistro/internal/feedlog"
	"bistro/internal/protocol"
	"bistro/internal/sourceclient"
)

func crc32of(data []byte) uint32 { return crc32.ChecksumIEEE(data) }

// reserveAddr binds and releases an ephemeral localhost address so the
// static topology can name it before the server exists.
func reserveAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// splitFeeds finds one feed name owned by node a and one owned by node
// b in the fixed two-node ring, so the routing tests exercise both the
// local and the forwarded path regardless of how the hash falls.
func splitFeeds(t *testing.T) (ownedByA, ownedByB string) {
	t.Helper()
	sm, err := cluster.NewShardMap(cluster.Topology{Nodes: []cluster.Node{
		{Name: "a", Addr: "x"}, {Name: "b", Addr: "x"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, cand := range []string{"CPU", "BPS", "MEM", "NET", "DISK", "FLOW"} {
		switch sm.Owner(cand).Name {
		case "a":
			if ownedByA == "" {
				ownedByA = cand
			}
		case "b":
			if ownedByB == "" {
				ownedByB = cand
			}
		}
		if ownedByA != "" && ownedByB != "" {
			return ownedByA, ownedByB
		}
	}
	t.Fatal("candidate feeds all hash to one node; extend the candidate list")
	return "", ""
}

// startTwoNodeCluster runs both nodes of a two-feed topology from one
// shared configuration text (node b via the NodeName override, as a
// second host would run it). The topology names both addresses before
// either node listens, so they are reserved and released first; when a
// listener elsewhere takes one in between, the pair starts again on
// fresh ports.
func startTwoNodeCluster(t *testing.T) (nodeA, nodeB *Server, feedA, feedB string) {
	t.Helper()
	feedA, feedB = splitFeeds(t)
	for attempt := 1; ; attempt++ {
		addrA, addrB := reserveAddr(t), reserveAddr(t)
		cfgSrc := fmt.Sprintf(`
cluster {
    self "a"
    node "a" { addr "%s" }
    node "b" { addr "%s" }
}
feed %s { pattern "%s_%%Y%%m%%d%%H%%M.txt" }
feed %s { pattern "%s_%%Y%%m%%d%%H%%M.txt" }
`, addrA, addrB, feedA, feedA, feedB, feedB)
		var err error
		nodeB = nil
		if nodeA, err = startServer(t, cfgSrc, func(o *Options) { o.Listen = addrA }); err == nil {
			nodeB, err = startServer(t, cfgSrc, func(o *Options) {
				o.Listen = addrB
				o.NodeName = "b"
			})
		}
		if err == nil {
			return nodeA, nodeB, feedA, feedB
		}
		if !errors.Is(err, syscall.EADDRINUSE) || attempt == 5 {
			t.Fatal(err)
		}
		t.Logf("a reserved port was taken before its node listened (%v); starting again", err)
		for _, s := range []*Server{nodeA, nodeB} {
			if s != nil {
				s.Stop()
			}
		}
	}
}

func TestClusterUploadForwardedToOwner(t *testing.T) {
	nodeA, nodeB, feedA, feedB := startTwoNodeCluster(t)

	src, err := sourceclient.Dial(nodeA.Addr(), "poller1", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	// A file of the remotely-owned feed uploaded to node a must land on
	// node b; the locally-owned feed stays on a.
	if err := src.Upload(feedB+"_201009250451.txt", []byte("remote\n")); err != nil {
		t.Fatal(err)
	}
	if err := src.Upload(feedA+"_201009250451.txt", []byte("local\n")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "forwarded ingest on node b", func() bool {
		return nodeB.Store().Stats().Files == 1
	})
	waitFor(t, "local ingest on node a", func() bool {
		return nodeA.Store().Stats().Files == 1
	})
	for _, meta := range nodeB.Store().AllFiles() {
		if len(meta.Feeds) != 1 || meta.Feeds[0] != feedB {
			t.Fatalf("node b ingested %v, want only %s", meta.Feeds, feedB)
		}
	}
	for _, meta := range nodeA.Store().AllFiles() {
		if len(meta.Feeds) != 1 || meta.Feeds[0] != feedA {
			t.Fatalf("node a kept %v, want only %s", meta.Feeds, feedA)
		}
	}
}

func TestClusterResolveAndSubscribeRedirect(t *testing.T) {
	nodeA, _, feedA, feedB := startTwoNodeCluster(t)

	conn, err := protocol.Dial(nodeA.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Call(protocol.Hello{Role: "subscriber", Name: "wh"}); err != nil {
		t.Fatal(err)
	}

	resolve := func(feed string) protocol.Resolved {
		t.Helper()
		if err := conn.Send(protocol.Resolve{Feed: feed}); err != nil {
			t.Fatal(err)
		}
		reply, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		res, ok := reply.(protocol.Resolved)
		if !ok {
			t.Fatalf("expected Resolved, got %T", reply)
		}
		return res
	}
	if res := resolve(feedA); res.Node != "a" || !res.Owner {
		t.Fatalf("resolve %s via a = %+v, want owner a", feedA, res)
	}
	resB := resolve(feedB)
	if resB.Node != "b" || resB.Owner {
		t.Fatalf("resolve %s via a = %+v, want non-owner b", feedB, resB)
	}

	// Subscribing at the wrong node redirects to the owner's address.
	if err := conn.Send(protocol.Subscribe{Name: "wh", Dest: "in", Feeds: []string{feedB}}); err != nil {
		t.Fatal(err)
	}
	reply, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	ack, ok := reply.(protocol.Ack)
	if !ok {
		t.Fatalf("expected Ack, got %T", reply)
	}
	if ack.OK || ack.Redirect != resB.Addr {
		t.Fatalf("subscribe to remote feed = %+v, want redirect to %s", ack, resB.Addr)
	}

	// A mixed request (one local leaf) is served locally, no redirect.
	if err := conn.Call(protocol.Subscribe{Name: "wh", Dest: "in", Feeds: []string{feedA, feedB}}); err != nil {
		t.Fatalf("mixed subscribe should be accepted locally: %v", err)
	}
}

// corruptUpload sends an Upload whose CRC does not match its content
// and returns the server's answer.
func corruptUpload(t *testing.T, addr, name string, relayed bool) protocol.Ack {
	t.Helper()
	conn, err := protocol.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	data := []byte("corrupted in flight\n")
	if err := conn.Send(protocol.Upload{Name: name, Data: data, CRC: crc32of(data) ^ 1, Relayed: relayed}); err != nil {
		t.Fatal(err)
	}
	reply, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	ack, ok := reply.(protocol.Ack)
	if !ok {
		t.Fatalf("expected Ack, got %T", reply)
	}
	return ack
}

func crcFailures(s *Server) int64 {
	return s.Metrics().Counter("bistro_ingest_upload_crc_failures_total", "").Value()
}

// TestCorruptedUploadRefused: an Upload whose content fails its CRC is
// NACKed, counted and alarmed, and nothing lands: not the file, not the
// temp it streamed into.
func TestCorruptedUploadRefused(t *testing.T) {
	var alarms atomic.Int32
	s := newServer(t, testConfig, func(o *Options) {
		o.Listen = "127.0.0.1:0"
		o.OnAlarm = func(feedlog.Alarm) { alarms.Add(1) }
	})
	ack := corruptUpload(t, s.Addr(), "BPS_poller1_201009250451.csv", false)
	if ack.OK || ack.Error != "checksum mismatch" {
		t.Fatalf("corrupted upload answered %+v, want a checksum mismatch NACK", ack)
	}
	if n := crcFailures(s); n != 1 {
		t.Fatalf("crc failure counter = %d, want 1", n)
	}
	if alarms.Load() != 1 {
		t.Fatalf("%d alarms raised, want 1", alarms.Load())
	}
	if temps := landingTemps(t, s); len(temps) != 0 {
		t.Fatalf("the refused upload's temp remains: %v", temps)
	}
	if entries, _ := os.ReadDir(s.land.Dir()); len(entries) != 0 {
		t.Fatalf("landing holds %v", entries)
	}
	if files := s.Store().Stats().Files; files != 0 {
		t.Fatalf("%d files ingested, want 0", files)
	}
}

// TestClusterCorruptedUploadRefusedAtBothHops: the node a source
// uploads to checks the CRC before forwarding, and the owner checks it
// again on the relayed copy.
func TestClusterCorruptedUploadRefusedAtBothHops(t *testing.T) {
	nodeA, nodeB, _, feedB := startTwoNodeCluster(t)
	name := feedB + "_201009250453.txt"
	if ack := corruptUpload(t, nodeA.Addr(), name, false); ack.OK || ack.Error != "checksum mismatch" {
		t.Fatalf("first hop answered %+v", ack)
	}
	if a, b := crcFailures(nodeA), crcFailures(nodeB); a != 1 || b != 0 {
		t.Fatalf("crc failures a=%d b=%d, want 1 and 0 (refused before forwarding)", a, b)
	}
	if ack := corruptUpload(t, nodeB.Addr(), name, true); ack.OK || ack.Error != "checksum mismatch" {
		t.Fatalf("owner answered a corrupted relay with %+v", ack)
	}
	if b := crcFailures(nodeB); b != 1 {
		t.Fatalf("owner crc failures = %d, want 1", b)
	}
	for _, s := range []*Server{nodeA, nodeB} {
		if files := s.Store().Stats().Files; files != 0 {
			t.Fatalf("%d files ingested, want 0", files)
		}
	}
}

func TestClusterRelayedUploadNeverForwardedAgain(t *testing.T) {
	// A relayed upload for a feed the receiver does not own must be
	// deposited locally (one misplaced file), not bounced back: the
	// one-hop rule is what prevents forwarding loops while shard maps
	// disagree mid-failover.
	nodeA, _, _, feedB := startTwoNodeCluster(t)

	conn, err := protocol.Dial(nodeA.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Call(protocol.Hello{Role: "source", Name: "peer"}); err != nil {
		t.Fatal(err)
	}
	data := []byte("relayed\n")
	if err := conn.Call(protocol.Upload{
		Name: feedB + "_201009250452.txt", Data: data,
		CRC: crc32of(data), Relayed: true,
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "relayed upload ingested locally", func() bool {
		return nodeA.Store().Stats().Files == 1
	})
}

// TestRefusedRelaySentOnce: a relayed upload the owner refuses (here
// fenced by a stale epoch) reaches the owner once, and the relay after
// it reuses the pooled peer connection. A refusal is the owner's
// answer, not a sign of a stale connection to redial and send again on.
func TestRefusedRelaySentOnce(t *testing.T) {
	nodeA, nodeB, _, feedB := startTwoNodeCluster(t)
	src, err := sourceclient.Dial(nodeA.Addr(), "poller1", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	upload := func(minute int) error {
		return src.Upload(fmt.Sprintf("%s_2010092504%02d.txt", feedB, minute), []byte("relayed\n"))
	}
	pooled := func() *protocol.Conn {
		h := nodeA.pool.hostConn(nodeB.Addr())
		h.mu.Lock()
		defer h.mu.Unlock()
		return h.conn
	}
	if err := upload(50); err != nil {
		t.Fatal(err)
	}
	first := pooled()
	if first == nil {
		t.Fatal("an accepted relay left no pooled connection")
	}

	nodeB.shard.ObserveEpoch(5) // node a's relays now carry a stale epoch
	if err := upload(51); err == nil || !strings.Contains(err.Error(), "fenced") {
		t.Fatalf("stale-epoch relay: err = %v, want the owner's fencing refusal", err)
	}
	if got := nodeB.Metrics().Counter("bistro_cluster_fenced_total", "").Value(); got != 1 {
		t.Fatalf("the refused relay reached the owner %d times, want once", got)
	}
	if pooled() != first {
		t.Fatal("a refusal closed the pooled connection")
	}

	nodeA.shard.ObserveEpoch(5)
	if err := upload(52); err != nil {
		t.Fatalf("relay after a refusal: %v", err)
	}
	if pooled() != first {
		t.Fatal("the relay after a refusal dialled a new connection")
	}
	waitFor(t, "both accepted relays ingested on node b", func() bool { return nodeB.Store().Stats().Files == 2 })
}
