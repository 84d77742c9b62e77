package server

// This file is the routing layer: the protocol accept loop plus the
// thin cluster shim in front of the node-local core. On a single-node
// server every request is handled locally and none of this costs
// anything; with a cluster block, uploads for feeds another node owns
// are forwarded peer-to-peer, subscriptions to remotely-owned feeds
// are redirected, and Resolve lets any client locate a feed's owner
// through any live node.

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"

	"bistro/internal/cluster"
	"bistro/internal/diskfault"
	"bistro/internal/protocol"
)

// acceptLoop serves the source/subscriber protocol.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		conn := protocol.NewConn(c)
		s.mu.Lock()
		if s.stopped {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// serveConn handles one peer connection. It reads each message's
// envelope only: an Upload's payload is streamed from the connection by
// handleUpload, and whatever a handler leaves unread (a refused
// upload's bytes) the next RecvHeader skips.
func (s *Server) serveConn(conn *protocol.Conn) {
	defer conn.Close()
	for {
		msg, n, err := conn.RecvHeader()
		if err != nil {
			return
		}
		var ack protocol.Ack
		switch m := msg.(type) {
		case protocol.Hello:
			ack = protocol.Ack{OK: true}
		case protocol.Upload:
			ack = s.handleUpload(conn, m, n)
		case protocol.FileReady:
			ack = s.handleFileReady(m)
		case protocol.EndOfBatch:
			s.punctuateFromSource(m.Feed)
			ack = protocol.Ack{OK: true}
		case protocol.Subscribe:
			ack = s.handleSubscribe(m)
		case protocol.Rejoin:
			ack = s.handleRejoin(m)
		case protocol.Resolve:
			if err := conn.Send(s.resolveFeed(m.Feed)); err != nil {
				return
			}
			continue // Resolve answers with Resolved, not Ack
		case protocol.Fetch:
			if err := s.serveFetch(conn, m); err != nil {
				return
			}
			continue // serveFetch writes its own reply
		default:
			ack = protocol.Ack{OK: false, Error: fmt.Sprintf("unexpected message %T", msg)}
		}
		if err := conn.SendAck(ack); err != nil {
			return
		}
	}
}

// routeFor classifies a deposited filename and reports the owning node
// when it is not this one. Unmatched files (and everything on a
// single-node server) stay local.
func (s *Server) routeFor(name string) (cluster.Node, bool) {
	if s.shard == nil || s.shard.SelfName() == "" {
		return cluster.Node{}, false
	}
	matches := s.class.Classify(name)
	if len(matches) == 0 {
		return cluster.Node{}, false
	}
	owner := s.shard.Owner(matches[0].Feed.Path)
	if owner.Name == s.shard.SelfName() {
		return cluster.Node{}, false
	}
	return owner, true
}

// handleUpload deposits an uploaded file whose n payload bytes are
// still on conn, forwarding it to the feed's owner first when a shard
// map says it belongs elsewhere. Relayed uploads are never forwarded
// again: during a failover the sender's and receiver's maps can
// briefly disagree, and a one-hop rule turns that into a single
// misplaced file instead of a forwarding loop. Content that fails its
// CRC is refused before it is forwarded or becomes visible in landing:
// staging would otherwise give it a fresh checksum and deliver it as
// valid. A deposit streams from the socket into landing; a forwarded
// upload streams into a temp there (which landing scans skip), and from
// it to the owner.
func (s *Server) handleUpload(conn *protocol.Conn, m protocol.Upload, n int64) protocol.Ack {
	if ack, fenced := s.fenceRelayed(m); fenced {
		return ack
	}
	owner, remote := s.routeFor(filepath.ToSlash(m.Name))
	if !remote || m.Relayed {
		err := s.land.Deposit(m.Name, conn.Payload(), m.CRC)
		if errors.Is(err, diskfault.ErrChecksum) {
			return s.refuseCorrupt(m.Name, n)
		}
		if err != nil {
			return protocol.Ack{OK: false, Error: err.Error()}
		}
		return protocol.Ack{OK: true}
	}
	w, err := diskfault.Create(s.fs, s.land.Dir())
	if err != nil {
		return protocol.Ack{OK: false, Error: err.Error()}
	}
	defer w.Abort()
	if _, err := diskfault.CopySocket(&w, conn.Payload()); err != nil {
		return protocol.Ack{OK: false, Error: err.Error()}
	}
	if w.CRC() != m.CRC {
		return s.refuseCorrupt(m.Name, n)
	}
	if err := w.CloseForRead(); err != nil {
		return protocol.Ack{OK: false, Error: err.Error()}
	}
	if err := s.forward(owner, m.Name, w.Name(), m.CRC, w.Size()); err != nil {
		return protocol.Ack{OK: false, Error: fmt.Sprintf("forward to %s: %v", owner.Name, err)}
	}
	s.logger.Logf("cluster", "upload %s forwarded to owner %s", m.Name, owner.Name)
	return protocol.Ack{OK: true}
}

// forward relays the size bytes at path, whose CRC is crc, to owner as
// a relayed Upload stamped with this node's epoch, re-opening path for
// each attempt. An attempt that fails after it got a connection (a
// pooled one the owner has since closed) is tried once more, on the
// fresh connection the pool then dials; a refusal is the owner's
// answer and is not.
func (s *Server) forward(owner cluster.Node, name, path string, crc uint32, size int64) error {
	msg := protocol.Upload{Name: name, CRC: crc, Relayed: true, Epoch: s.shard.Epoch()}
	var connected bool
	send := func(conn *protocol.Conn) error {
		f, err := s.fs.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		connected = true
		if err := conn.SendFrom(msg, f, size); err != nil {
			return err
		}
		return conn.RecvAck()
	}
	err := s.pool.withConn(owner.Addr, send)
	if err != nil && connected && !protocol.Refused(err) {
		err = s.pool.withConn(owner.Addr, send)
	}
	return err
}

// refuseCorrupt counts, alarms and NACKs an upload that failed its CRC.
func (s *Server) refuseCorrupt(name string, n int64) protocol.Ack {
	s.metrics.uploadCRCFailures.Inc()
	s.logger.Raise("ingest", fmt.Sprintf("upload %s failed its checksum (%d bytes); refused", name, n))
	return protocol.Ack{OK: false, Error: "checksum mismatch"}
}

// fenceRelayed refuses a relayed upload stamped with a stale cluster
// epoch: a partitioned old owner forwarding through its outdated shard
// map must not deposit here after a failover moved ownership on. The
// epoch is deliberately NOT observed from uploads — a fenced node must
// learn the new topology by rejoining, not by inheriting the epoch and
// slipping past the fence.
func (s *Server) fenceRelayed(m protocol.Upload) (protocol.Ack, bool) {
	if s.shard == nil || !m.Relayed || m.Epoch == 0 {
		return protocol.Ack{}, false
	}
	cur := s.shard.Epoch()
	if m.Epoch >= cur {
		return protocol.Ack{}, false
	}
	if s.clusterM != nil {
		s.clusterM.Fenced.Inc()
	}
	s.logger.Raise("cluster", fmt.Sprintf(
		"fenced relayed upload %s: sender epoch %d, ours %d", m.Name, m.Epoch, cur))
	return protocol.Ack{
		OK:    false,
		Error: fmt.Sprintf("fenced: stale epoch %d (node is at %d)", m.Epoch, cur),
		Epoch: cur,
	}, true
}

// handleRejoin adopts the sender as this node's new warm standby
// (online re-seed). The ack carries our epoch so the rejoiner seeds
// its fence floor before any replication frame arrives.
func (s *Server) handleRejoin(m protocol.Rejoin) protocol.Ack {
	if s.shard == nil {
		return protocol.Ack{OK: false, Error: "not clustered"}
	}
	if err := s.AttachStandby(m.StandbyAddr); err != nil {
		return protocol.Ack{OK: false, Error: err.Error(), Epoch: s.shard.Epoch()}
	}
	s.logger.Logf("cluster", "node %s rejoined as standby at %s", m.Node, m.StandbyAddr)
	return protocol.Ack{OK: true, Epoch: s.shard.Epoch()}
}

// handleFileReady ingests a shared-filesystem deposit, streaming the
// landed file to the owning node when the feed is sharded elsewhere
// (the landing zone is node-local, so a cross-shard FileReady becomes a
// relayed Upload) and removing it once the owner has acked.
func (s *Server) handleFileReady(m protocol.FileReady) protocol.Ack {
	name := filepath.ToSlash(m.Path)
	if owner, remote := s.routeFor(name); remote {
		src := filepath.Join(s.land.Dir(), filepath.FromSlash(m.Path))
		f, err := s.fs.Open(src)
		if err != nil {
			return protocol.Ack{OK: false, Error: err.Error()}
		}
		size, crc, err := diskfault.CopyCRC(io.Discard, f)
		f.Close()
		if err != nil {
			return protocol.Ack{OK: false, Error: err.Error()}
		}
		if err := s.forward(owner, name, src, crc, size); err != nil {
			return protocol.Ack{OK: false, Error: fmt.Sprintf("forward to %s: %v", owner.Name, err)}
		}
		if err := s.fs.Remove(src); err != nil {
			s.logger.Logf("cluster", "clear forwarded %s: %v", name, err)
		}
		s.logger.Logf("cluster", "deposit %s forwarded to owner %s", name, owner.Name)
		return protocol.Ack{OK: true}
	}
	if err := s.land.FileReady(m.Path); err != nil {
		return protocol.Ack{OK: false, Error: err.Error()}
	}
	return protocol.Ack{OK: true}
}

// handleSubscribe serves a runtime SUBSCRIBE, redirecting the client
// to the owning node when every requested feed lives on one other
// node. Mixed requests are served locally for the local share.
func (s *Server) handleSubscribe(m protocol.Subscribe) protocol.Ack {
	if addr, redirect := s.subscribeRedirect(m.Feeds); redirect {
		return protocol.Ack{OK: false, Error: "feeds owned by another node", Redirect: addr}
	}
	if err := s.SubscribeRemote(m); err != nil {
		return protocol.Ack{OK: false, Error: err.Error()}
	}
	return protocol.Ack{OK: true}
}

// subscribeRedirect expands the requested feeds (groups to leaves) and
// returns the owner's address when none of them is local and all of
// them resolve to the same remote node.
func (s *Server) subscribeRedirect(feeds []string) (string, bool) {
	if s.shard == nil || s.shard.SelfName() == "" {
		return "", false
	}
	anyLocal := false
	owners := make(map[string]cluster.Node)
	for _, f := range feeds {
		for _, leaf := range s.expandFeed(f) {
			owner := s.shard.Owner(leaf)
			if owner.Name == s.shard.SelfName() {
				anyLocal = true
			} else {
				owners[owner.Name] = owner
			}
		}
	}
	if anyLocal || len(owners) != 1 {
		return "", false
	}
	for _, owner := range owners {
		return owner.Addr, true
	}
	return "", false
}

// expandFeed resolves a feed-group path to its leaves (a leaf resolves
// to itself).
func (s *Server) expandFeed(path string) []string {
	if leaves, ok := s.cfg.Groups[path]; ok && len(leaves) > 0 {
		return leaves
	}
	return []string{path}
}

// resolveFeed answers Resolve: which node owns this feed. A
// single-node server claims everything; feed groups resolve through
// their first leaf.
func (s *Server) resolveFeed(feed string) protocol.Resolved {
	if s.shard == nil {
		return protocol.Resolved{Addr: s.Addr(), Owner: true}
	}
	target := feed
	if leaves := s.expandFeed(feed); len(leaves) > 0 {
		target = leaves[0]
	}
	owner := s.shard.Owner(target)
	return protocol.Resolved{
		Node:    owner.Name,
		Addr:    owner.Addr,
		Standby: owner.Standby,
		Owner:   owner.Name == s.shard.SelfName(),
		Epoch:   s.shard.Epoch(),
	}
}

// punctuateFromSource fans an end-of-batch marker out to the named
// feed, or to every feed when the source does not say. Punctuation is
// node-local: sources punctuate the node that ingested their files.
func (s *Server) punctuateFromSource(feed string) {
	if feed != "" {
		s.engine.Punctuate(feed)
		return
	}
	for _, f := range s.cfg.Feeds {
		s.engine.Punctuate(f.Path)
	}
}

// serveFetch answers a hybrid-pull retrieval with the staged (or, once
// expired, archived) content streamed into one Deliver frame — the
// long-horizon analysis path of §4.2. A file that fails to open is an
// error Ack; one that fails mid-read (or is not the receipt's size)
// cuts the frame, so the cause is logged here and the caller closes
// conn, which the client sees as an unexpected EOF.
func (s *Server) serveFetch(conn *protocol.Conn, m protocol.Fetch) error {
	meta, ok := s.store.File(m.FileID)
	if !ok {
		return conn.Send(protocol.Ack{OK: false, Error: "unknown file id"})
	}
	rc, err := s.arch.Open(meta.StagedPath)
	if err != nil {
		return conn.Send(protocol.Ack{OK: false, Error: err.Error()})
	}
	defer rc.Close()
	err = conn.SendFrom(protocol.Deliver{
		FileID: meta.ID,
		Feed:   firstOf(meta.Feeds),
		Name:   meta.StagedPath,
		CRC:    meta.Checksum,
	}, rc, meta.Size)
	if err != nil {
		s.logger.Logf("fetch", "file %d (%s): %v; closing the connection", meta.ID, meta.StagedPath, err)
	}
	return err
}

func firstOf(xs []string) string {
	if len(xs) == 0 {
		return ""
	}
	return xs[0]
}
