// Package server assembles the Bistro data feed manager (SIGMOD'11
// §3): landing zones feed the classifier, matched files are normalized
// into staging, arrivals are durably logged in the receipt database,
// the delivery engine pushes (or notifies) subscribers under
// partitioned real-time scheduling, triggers fire per file or per
// batch, the archiver enforces the retention window, and the feed
// analyzer continuously watches both the unmatched stream (new-feed
// discovery, false negatives) and the matched streams (false
// positives).
//
// A server optionally listens for the source/subscriber protocol, and
// a server can itself subscribe to another server, forming the
// cascaded feed delivery network of §3.
package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"bistro/internal/admin"
	"bistro/internal/analyzer"
	"bistro/internal/archive"
	"bistro/internal/backoff"
	"bistro/internal/classifier"
	"bistro/internal/clock"
	"bistro/internal/cluster"
	"bistro/internal/config"
	"bistro/internal/delivery"
	"bistro/internal/discovery"
	"bistro/internal/diskfault"
	"bistro/internal/feedlog"
	"bistro/internal/httpfeed"
	"bistro/internal/ingest"
	"bistro/internal/landing"
	"bistro/internal/metrics"
	"bistro/internal/normalize"
	"bistro/internal/pattern"
	"bistro/internal/plan"
	"bistro/internal/protocol"
	"bistro/internal/receipts"
	"bistro/internal/replay"
	"bistro/internal/scheduler"
	"bistro/internal/transport"
	"bistro/internal/trigger"
)

// Options configure a Server.
type Options struct {
	// Config is the parsed Bistro configuration.
	Config *config.Config
	// Root is the server work area; landing/staging/receipts/archive
	// directories are created beneath it (config dir settings are
	// interpreted relative to Root unless absolute).
	Root string
	// Clock defaults to the wall clock.
	Clock clock.Clock
	// Listen, when non-empty, serves the source/subscriber protocol on
	// this address ("127.0.0.1:0" for an ephemeral port).
	Listen string
	// ScanInterval is the landing fallback scan cadence for
	// non-cooperating sources. Default 5s; negative disables.
	ScanInterval time.Duration
	// ExpiryInterval is how often the retention window is enforced.
	// Default 1 minute; negative disables.
	ExpiryInterval time.Duration
	// MonitorInterval is how often feed progress and interval
	// completeness are checked. Default 30s; negative disables.
	MonitorInterval time.Duration
	// AnalyzeInterval runs the feed analyzer periodically, raising
	// alarms for suspected false negatives and logging new-feed
	// candidates. 0 disables (analysis stays on demand via Analyze).
	AnalyzeInterval time.Duration
	// OnAlarm taps monitoring alarms (optional).
	OnAlarm func(feedlog.Alarm)
	// Deadline is the per-file delivery target. Default 1 minute.
	Deadline time.Duration
	// Transport overrides the default transport (tests, simulations).
	Transport transport.Transport
	// LogWriter receives the activity log (default io.Discard).
	LogWriter io.Writer
	// OnEvent taps delivery events (optional).
	OnEvent func(delivery.Event)
	// NoSync disables receipt fsyncs (tests and experiments).
	NoSync bool
	// FS overrides the filesystem for the storage path — receipt WAL
	// and checkpoints, staging promotion, archive moves, landing
	// deposits (fault injection, crash simulation). Default: the real
	// filesystem.
	FS diskfault.FS
	// AnalyzerSample bounds how many unmatched observations the
	// analyzer retains, and how many of each feed's newest receipts it
	// reads back as that feed's matched stream. Default 10000.
	AnalyzerSample int
	// NodeName overrides the cluster block's self entry — the usual
	// way one shared config file runs as different nodes per host.
	NodeName string
}

// Server is a running Bistro feed manager.
type Server struct {
	opts   Options
	cfg    *config.Config
	clk    clock.Clock
	fs     diskfault.FS
	root   string
	stage  string
	dbDir  string
	quar   string
	logger *feedlog.Logger

	reg     *metrics.Registry
	metrics *serverMetrics

	store  *receipts.Store
	class  *classifier.Classifier
	plans  *plan.Set
	engine *delivery.Engine
	land   *landing.Manager
	arch   *archive.Archiver
	pipe   *ingest.Pipeline
	replay *replay.Manager // nil unless the config has a replay block

	ln    net.Listener
	adm   *admin.Server       // nil unless the config has an admin block
	httpd *httpfeed.Server    // nil unless the config has an http block
	trans *compositeTransport // nil when Options.Transport overrides

	// Cluster state — all nil/zero on a single-node server (the
	// 1-shard degenerate case pays nothing for the routing layer).
	// shipper is guarded by mu: AttachStandby swaps it at runtime when
	// a recovered node rejoins as the new standby.
	shard    *cluster.ShardMap
	shipper  *cluster.Shipper // nil unless this node ships to a standby
	clusterM *cluster.Metrics
	peers    *peerPool
	failover cluster.FailoverParams

	mu        sync.Mutex
	conns     map[*protocol.Conn]struct{}
	unmatched []discovery.Observation
	stopCh    chan struct{}
	wg        sync.WaitGroup
	stopped   bool
	readyErr  error // nil once Start finished reconciliation
}

// New builds a server (directories, receipt store, pipeline). Call
// Start to begin processing.
func New(opts Options) (*Server, error) {
	if opts.Config == nil {
		return nil, fmt.Errorf("server: config required")
	}
	if opts.Root == "" {
		return nil, fmt.Errorf("server: root directory required")
	}
	if opts.Clock == nil {
		opts.Clock = clock.NewReal()
	}
	if opts.ScanInterval == 0 {
		opts.ScanInterval = 5 * time.Second
	}
	if opts.ExpiryInterval == 0 {
		opts.ExpiryInterval = time.Minute
	}
	if opts.MonitorInterval == 0 {
		opts.MonitorInterval = 30 * time.Second
	}
	if opts.LogWriter == nil {
		opts.LogWriter = io.Discard
	}
	if opts.AnalyzerSample == 0 {
		opts.AnalyzerSample = 10000
	}
	cfg := opts.Config
	fsys := opts.FS
	if fsys == nil {
		fsys = diskfault.OS()
	}
	if opts.NoSync {
		fsys = diskfault.NoSync(fsys)
	}
	s := &Server{
		opts:   opts,
		cfg:    cfg,
		clk:    opts.Clock,
		fs:     fsys,
		root:   opts.Root,
		conns:  make(map[*protocol.Conn]struct{}),
		stopCh: make(chan struct{}),
	}
	s.stage = s.resolveDir(cfg.StagingDir, "staging")
	s.dbDir = filepath.Join(opts.Root, "receipts")
	s.quar = s.resolveDir(cfg.QuarantineDir, "quarantine")
	if opts.Transport == nil {
		for _, sub := range cfg.Subscribers {
			if sub.Host == "" {
				if err := s.checkLocalDest(sub); err != nil {
					return nil, err
				}
			}
		}
	}
	for _, dir := range []string{s.stage, s.dbDir} {
		if err := s.fs.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("server: mkdir %s: %w", dir, err)
		}
	}
	s.reg = metrics.NewRegistry()
	s.metrics = newServerMetrics(s.reg)
	s.logger = feedlog.New(opts.LogWriter, s.clk)
	s.logger.OnAlarm = opts.OnAlarm
	for _, f := range cfg.Feeds {
		if f.ExpectPeriod > 0 {
			s.logger.SetExpectation(f.Path, f.ExpectPeriod, f.ExpectSources)
		}
	}
	s.readyErr = fmt.Errorf("server: starting (reconciliation pending)")

	if cfg.Cluster != nil {
		topo := cluster.Topology{Self: cfg.Cluster.Self, VNodes: cfg.Cluster.VNodes}
		if opts.NodeName != "" {
			topo.Self = opts.NodeName
		}
		for _, n := range cfg.Cluster.Nodes {
			topo.Nodes = append(topo.Nodes, cluster.Node{
				Name: n.Name, Addr: n.Addr, Standby: n.Standby,
			})
		}
		shard, err := cluster.NewShardMap(topo)
		if err != nil {
			return nil, err
		}
		s.shard = shard
		s.clusterM = cluster.NewMetrics(s.reg)
		s.peers = newPeerPool(5 * time.Second)
		s.failover = failoverParams(cfg.Cluster)
		if self, ok := shard.Self(); ok && self.Standby != "" {
			s.shipper = s.newShipper(self.Standby)
		}
	}

	store, err := receipts.Open(s.dbDir, receipts.Options{
		NoSync: opts.NoSync,
		FS:     s.fs,
		// Bound recovery time: snapshot once the WAL reaches 16 MiB.
		CheckpointBytes: 16 << 20,
		Metrics:         receipts.NewMetrics(s.reg),
		GroupCommit:     groupCommitConfig(cfg.Ingest),
	})
	if err != nil {
		return nil, err
	}
	s.store = store
	s.class = classifier.New(cfg.Feeds, classifier.Options{
		Metrics: classifier.NewMetrics(s.reg),
	})
	plans, err := plan.Compile(cfg, plan.Options{
		FS:      s.fs,
		Root:    opts.Root,
		Metrics: plan.NewMetrics(s.reg),
	})
	if err != nil {
		store.Close()
		return nil, err
	}
	s.plans = plans

	trans := opts.Transport
	if trans == nil {
		comp := s.buildTransport()
		s.trans = comp
		trans = comp
	}
	feedPrio := make(map[string]int)
	for _, f := range cfg.Feeds {
		if f.Priority != 0 {
			feedPrio[f.Path] = f.Priority
		}
	}
	schedCfg := schedulerConfig(cfg.Scheduler)
	schedCfg.Clock = s.clk
	replayPart := 0
	if cfg.Replay != nil {
		// The replay block adds a dedicated partition so catch-up
		// streaming never competes with live delivery workers (§4.3).
		if len(schedCfg.Partitions) == 0 {
			schedCfg = delivery.DefaultSchedulerConfig()
			schedCfg.Clock = s.clk
		}
		w := cfg.Replay.Workers
		if w <= 0 {
			w = 1
		}
		schedCfg.Partitions = append(schedCfg.Partitions, scheduler.PartitionConfig{
			Name: "replay", Workers: w, Policy: scheduler.FIFO,
		})
		replayPart = len(schedCfg.Partitions) - 1
	}
	var chans []delivery.ChannelSpec
	if cfg.Channels != nil {
		for _, g := range cfg.Channels.Groups {
			chans = append(chans, delivery.ChannelSpec{
				Name:    g.Name,
				Feed:    g.Feed,
				Members: append([]string(nil), g.Members...),
			})
		}
	}
	engine, err := delivery.New(delivery.Options{
		Clock:           s.clk,
		Store:           store,
		Transport:       trans,
		Subscribers:     cfg.Subscribers,
		StagingRoot:     s.stage,
		Deadline:        opts.Deadline,
		FeedPriority:    feedPrio,
		Scheduler:       schedCfg,
		Backoff:         cfg.Backoff.Policy(),
		OnEvent:         s.onDeliveryEvent,
		Metrics:         delivery.NewMetrics(s.reg),
		ReplayPartition: replayPart,
		FS:              s.fs,
		Channels:        chans,
		Transform:       s.deliveryTransform,
		// Both seams late-bind through s: the archiver and replay
		// manager are constructed after the engine.
		HistoryMeta: func(id uint64) (receipts.FileMeta, bool) {
			if s.replay == nil {
				return receipts.FileMeta{}, false
			}
			return s.replay.Meta(id)
		},
		ArchiveOpen: func(stagedPath string) (io.ReadCloser, error) {
			if s.arch == nil {
				return nil, fmt.Errorf("server: no archiver")
			}
			return s.arch.Open(stagedPath)
		},
	})
	if err != nil {
		store.Close()
		return nil, err
	}
	s.engine = engine
	engine.Triggers().Metrics = trigger.NewMetrics(s.reg)

	land, err := landing.New(s.resolveDir(cfg.LandingDir, "landing"), s.IngestLanding, s.clk, opts.ScanInterval)
	if err != nil {
		store.Close()
		return nil, err
	}
	land.FS = s.fs
	s.land = land

	archRoot := ""
	if cfg.ArchiveDir != "" {
		archRoot = s.resolveDir(cfg.ArchiveDir, "archive")
	}
	arch, err := archive.New(store, s.clk, s.stage, archRoot, cfg.Window)
	if err != nil {
		store.Close()
		return nil, err
	}
	arch.FS = s.fs
	arch.Metrics = archive.NewMetrics(s.reg)
	arch.Alarm = func(msg string) { s.logger.Raise("archive", msg) }
	if s.shard != nil && archRoot != "" {
		// Ship archive promotions on the replication stream: the standby
		// mirrors the move (staged copy dropped, archived copy + manifest
		// entries written), so a promoted standby serves replay history
		// too. An error aborts the expiry pass and the next pass retries.
		arch.OnArchived = func(v receipts.FileMeta, archivedAt time.Time) error {
			sh := s.getShipper()
			if sh == nil {
				return nil
			}
			return s.shipArchived(sh, archRoot, v, archivedAt)
		}
	}
	if archRoot != "" && (cfg.Replay == nil || !cfg.Replay.NoManifest) {
		if err := arch.EnableManifest(); err != nil {
			store.Close()
			return nil, err
		}
	}
	s.arch = arch
	if cfg.Replay != nil && arch.Manifest() != nil {
		s.replay = replay.New(replay.Options{
			Clock:    s.clk,
			Store:    store,
			Manifest: arch.Manifest(),
			Submit:   engine.SubmitReplay,
			Rate:     cfg.Replay.Rate,
			Deadline: opts.Deadline,
			Metrics:  replay.NewMetrics(s.reg),
			OnEvent:  s.onReplayEvent,
		})
	}

	// The ingest pipeline is constructed (and its workers started)
	// last: Start's reconcile and unmatched-reprocess passes route
	// through it before the rest of the pipeline spins up.
	ingOpts := ingest.Options{
		Process: s.processArrival,
		Deliver: s.engine.EnqueueFile,
		Metrics: ingest.NewMetrics(s.reg),
	}
	if sp := cfg.Ingest; sp != nil {
		ingOpts.Workers = sp.Workers
		ingOpts.HandoffDepth = sp.Queue
	}
	pipe, err := ingest.New(ingOpts)
	if err != nil {
		store.Close()
		return nil, err
	}
	s.pipe = pipe
	return s, nil
}

// groupCommitConfig maps the config-language group_commit block onto
// the receipt store's flush window. An empty block keeps today's
// opportunistic group commit; when the block is present, unset fields
// default to max_batch 64 / max_delay 2ms so the window is always
// bounded in both directions (documented in docs/CONFIG.md).
func groupCommitConfig(sp *config.IngestSpec) receipts.GroupCommitConfig {
	if sp == nil || sp.GroupCommit == nil {
		return receipts.GroupCommitConfig{}
	}
	gc := receipts.GroupCommitConfig{
		MaxBatch: sp.GroupCommit.MaxBatch,
		MaxDelay: sp.GroupCommit.MaxDelay,
	}
	if gc.MaxBatch <= 0 {
		gc.MaxBatch = 64
	}
	if gc.MaxDelay <= 0 {
		gc.MaxDelay = 2 * time.Millisecond
	}
	return gc
}

// schedulerConfig converts a configuration-language scheduler block
// into the scheduler's own config (zero value when unset: the delivery
// engine falls back to its default layout).
func schedulerConfig(spec *config.SchedulerSpec) scheduler.Config {
	if spec == nil {
		return scheduler.Config{}
	}
	out := scheduler.Config{
		Backfill:      scheduler.BackfillConcurrent,
		GroupSameFile: true,
		Migration:     scheduler.MigrationConfig{Enabled: spec.Migrate},
	}
	for _, p := range spec.Partitions {
		pc := scheduler.PartitionConfig{
			Name:            p.Name,
			Workers:         p.Workers,
			BackfillWorkers: p.Backfill,
			MaxMeanService:  p.MaxService,
		}
		switch p.Policy {
		case "fifo":
			pc.Policy = scheduler.FIFO
		case "prio-edf":
			pc.Policy = scheduler.PrioEDF
		case "max-benefit":
			pc.Policy = scheduler.MaxBenefit
		default:
			pc.Policy = scheduler.EDF
		}
		out.Partitions = append(out.Partitions, pc)
	}
	return out
}

// resolveDir interprets a configured directory relative to Root.
func (s *Server) resolveDir(dir, fallback string) string {
	if dir == "" {
		dir = fallback
	}
	if filepath.IsAbs(dir) {
		return dir
	}
	return filepath.Join(s.root, dir)
}

// buildTransport wires a composite transport: TCP push for subscribers
// with hosts, local directories (dests checkLocalDest passed) for the
// rest.
func (s *Server) buildTransport() *compositeTransport {
	local := transport.NewLocalDir()
	remote := newTCPTransport(5*time.Second, s.clk, s.cfg.Backoff.Policy())
	comp := &compositeTransport{local: local, remote: remote, hosts: make(map[string]string)}
	for _, sub := range s.cfg.Subscribers {
		if sub.Host != "" {
			comp.hosts[sub.Name] = sub.Host
			continue
		}
		// Local subscribers receive files under Root; the delivery
		// engine prefixes each file with the subscriber's dest, so the
		// transport root must not repeat it.
		local.Register(sub.Name, s.root)
	}
	return comp
}

// checkLocalDest defaults a host-less subscriber's dest and refuses a
// dest its files, written under Root at dest, must not reach: one that
// would not resolve strictly under Root, or one that overlaps a
// directory holding the server's own state, where pushed files would
// be re-ingested (landing) or mixed into staging, receipts, quarantine
// or the archive.
func (s *Server) checkLocalDest(sub *config.Subscriber) error {
	if sub.Dest == "" {
		sub.Dest = filepath.Join("delivered", sub.Name)
	}
	rel, err := diskfault.LocalName(sub.Dest)
	if err != nil {
		return fmt.Errorf("server: subscriber %s: dest: %w", sub.Name, err)
	}
	dest := filepath.Join(s.root, rel)
	own := []string{s.resolveDir(s.cfg.LandingDir, "landing"), s.stage, s.dbDir, s.quar}
	if s.cfg.ArchiveDir != "" {
		own = append(own, s.resolveDir(s.cfg.ArchiveDir, "archive"))
	}
	for _, dir := range own {
		if within(dest, dir) || within(dir, dest) {
			return fmt.Errorf("server: subscriber %s: dest %q overlaps the server's own %s", sub.Name, sub.Dest, dir)
		}
	}
	return nil
}

// within reports whether path is dir or lies under it.
func within(path, dir string) bool {
	rel, err := filepath.Rel(dir, path)
	return err == nil && filepath.IsLocal(rel)
}

// onDeliveryEvent feeds the monitoring subsystem and the caller's tap.
func (s *Server) onDeliveryEvent(ev delivery.Event) {
	switch ev.Kind {
	case delivery.EvDelivered, delivery.EvNotified:
		s.logger.Delivered(ev.Feed, ev.Subscriber, ev.Name)
	case delivery.EvDeliveryFailed:
		s.logger.DeliveryFailed(ev.Feed, ev.Subscriber, ev.Name, ev.Err)
		if errors.Is(ev.Err, delivery.ErrReceiptMissing) {
			// The receipt DB and the delivery queue disagree — the job was
			// skipped, not retried, so a human must look at it.
			s.logger.Raise(ev.Feed, fmt.Sprintf(
				"delivery to %s skipped: receipt for %s (id %d) missing or quarantined",
				ev.Subscriber, ev.Name, ev.FileID))
		}
	case delivery.EvSubscriberOffline:
		s.logger.Logf("subscriber", "%s flagged offline: %v", ev.Subscriber, ev.Err)
	case delivery.EvSubscriberOnline:
		s.logger.Logf("subscriber", "%s back online", ev.Subscriber)
	case delivery.EvBackfillQueued:
		s.logger.Logf("subscriber", "%s backfill queued: %d files", ev.Subscriber, ev.Count)
	case delivery.EvRetryScheduled:
		s.logger.Logf("subscriber", "%s retry %d for %s in %s: %v",
			ev.Subscriber, ev.Attempt, ev.Name, ev.Delay, ev.Err)
	case delivery.EvCircuitOpen:
		s.logger.Logf("subscriber", "%s circuit open (probe in %s): %v",
			ev.Subscriber, ev.Delay, ev.Err)
	case delivery.EvCircuitHalfOpen:
		s.logger.Logf("subscriber", "%s circuit half-open: probing", ev.Subscriber)
	case delivery.EvReceiptWriteFailed:
		// The subscriber has the bytes but the ledger does not know: a
		// restart re-sends (safe), but a failing receipt WAL is a
		// stop-everything disk problem — alarm, don't just log.
		s.logger.Raise("receipts", fmt.Sprintf(
			"receipt write for %s (file %d) to %s failed: %v",
			ev.Name, ev.FileID, ev.Subscriber, ev.Err))
	case delivery.EvChannelAttached:
		s.logger.Logf("channel", "%s attached to %s", ev.Subscriber, ev.Name)
	case delivery.EvChannelDetached:
		s.logger.Logf("channel", "%s detached from %s: %v", ev.Subscriber, ev.Name, ev.Err)
	}
	if s.opts.OnEvent != nil {
		s.opts.OnEvent(ev)
	}
}

// onReplayEvent logs replay session lifecycle.
func (s *Server) onReplayEvent(ev replay.Event) {
	switch ev.Kind {
	case replay.EvStarted:
		s.logger.Logf("replay", "%s: catch-up from %s (%d archived files)",
			ev.Subscriber, ev.From.Format(time.RFC3339), ev.Total)
	case replay.EvCompleted:
		s.logger.Logf("replay", "%s: caught up to live (%d streamed, %d skipped)",
			ev.Subscriber, ev.Streamed, ev.Skipped)
	}
}

// Start launches the pipeline: delivery workers, landing scanner,
// expiry loop, and (when configured) the protocol listener. Files
// quarantined as unmatched by earlier runs are re-classified first, so
// a revised feed definition disseminates everything it now matches
// (§4.2: "all the files matching new definition will be delivered").
func (s *Server) Start() error {
	if sh := s.getShipper(); sh != nil {
		// Establish replication before reconciliation so the recovery
		// commits (quarantines, re-ingests) ship like any others. A
		// failed bootstrap still arms the hooks: commits fail until the
		// background loop re-establishes the stream — an owner never
		// acknowledges an arrival its standby cannot replay.
		if err := s.bootstrapShipper(sh); err != nil {
			s.logger.Logf("cluster", "replication bootstrap: %v", err)
		} else {
			s.logger.Logf("cluster", "replicating to standby %s", sh.Addr())
		}
		s.wg.Add(1)
		go s.replicationLoop(sh)
	}
	if n := s.cleanStaleTmp(); n > 0 {
		s.logger.Logf("reconcile", "removed %d stale temp files", n)
	}
	if rep, err := s.Reconcile(); err != nil {
		s.logger.Logf("reconcile", "error: %v", err)
	} else {
		s.recordReconcile(rep)
		if !rep.Clean() {
			s.logger.Logf("reconcile", "%s", rep)
		}
	}
	if s.arch.Manifest() != nil {
		// The scan-once recovery path: any archived file whose manifest
		// append was lost (crash between move and append) is re-entered.
		byPath := make(map[string]receipts.FileMeta)
		for _, meta := range s.store.AllFiles() {
			byPath[meta.StagedPath] = meta
		}
		n, err := s.arch.ReconcileManifest(func(stagedPath string) (receipts.FileMeta, bool) {
			meta, ok := byPath[stagedPath]
			return meta, ok
		})
		if err != nil {
			s.logger.Logf("reconcile", "manifest: %v", err)
		} else if n > 0 {
			s.logger.Logf("reconcile", "manifest: recovered %d lost entries", n)
		}
	}
	if n, err := s.ReprocessUnmatched(); err != nil {
		s.logger.Logf("unmatched", "reprocess error: %v", err)
	} else if n > 0 {
		s.logger.Logf("unmatched", "revised definitions claimed %d quarantined files", n)
	}
	s.engine.Start()
	if s.opts.ScanInterval > 0 {
		s.land.Start()
	}
	if s.opts.ExpiryInterval > 0 && s.cfg.Window > 0 {
		s.wg.Add(1)
		go s.expiryLoop()
	}
	if s.opts.MonitorInterval > 0 {
		s.wg.Add(1)
		go s.monitorLoop()
	}
	if s.opts.AnalyzeInterval > 0 {
		s.wg.Add(1)
		go s.analyzeLoop()
	}
	if s.opts.Listen != "" {
		ln, err := net.Listen("tcp", s.opts.Listen)
		if err != nil {
			return fmt.Errorf("server: listen: %w", err)
		}
		s.ln = ln
		s.wg.Add(1)
		go s.acceptLoop()
	}
	if s.cfg.Admin != nil {
		adm, err := admin.Start(admin.Options{
			Listen:   s.cfg.Admin.Listen,
			Registry: s.reg,
			OnScrape: s.RefreshMetrics,
			Status:   func() any { return s.Status() },
			Healthy:  s.healthy,
			Ready:    s.Ready,
		})
		if err != nil {
			return err
		}
		s.adm = adm
		s.logger.Logf("admin", "observability endpoint on %s", adm.Addr())
	}
	if s.cfg.HTTP != nil {
		httpd, err := s.startHTTPFeed()
		if err != nil {
			return err
		}
		s.httpd = httpd
		s.logger.Logf("http", "pull data plane on %s", httpd.Addr())
	}
	s.mu.Lock()
	s.readyErr = nil
	s.mu.Unlock()
	return nil
}

// startHTTPFeed mounts the stateless HTTP pull data plane over the
// receipt store and archive manifest (config http block).
func (s *Server) startHTTPFeed() (*httpfeed.Server, error) {
	sp := s.cfg.HTTP
	feeds := make([]string, 0, len(s.cfg.Feeds))
	for _, f := range s.cfg.Feeds {
		feeds = append(feeds, f.Path)
	}
	principals := make([]*httpfeed.Principal, 0, len(sp.Principals))
	for _, pr := range sp.Principals {
		principals = append(principals, &httpfeed.Principal{
			Name: pr.Name, Token: pr.Token, Feeds: pr.Feeds,
		})
	}
	return httpfeed.Start(httpfeed.Options{
		Listen:     sp.Listen,
		Feeds:      feeds,
		Principals: principals,
		MaxBody:    sp.MaxBody,
		Registry:   s.reg,
		Clock:      s.clk.Now,
		Log:        s.FeedHTTPLog,
		Open:       s.openStaged,
		Ingest:     s.land.DepositUnchecked,
		Resolve: func(name string) []string {
			matches := s.class.Classify(name)
			feeds := make([]string, len(matches))
			for i, m := range matches {
				feeds[i] = m.Feed.Path
			}
			return feeds
		},
	})
}

// FeedHTTPLog builds a feed's consumable-log view for the HTTP data
// plane: the receipt store's staging window (expired receipts
// included until compaction folds them away) merged with the archive
// manifest. Compaction requires manifest membership, so the union
// covers every non-quarantined id with no transient hole across the
// staging-to-archive handoff.
func (s *Server) FeedHTTPLog(feed string) []httpfeed.Entry {
	staged := s.store.FeedLog(feed)
	se := make([]httpfeed.Entry, len(staged))
	for i, m := range staged {
		t := m.DataTime
		if t.IsZero() {
			t = m.Arrived
		}
		se[i] = httpfeed.Entry{Seq: m.ID, Name: m.Name, StagedPath: m.StagedPath,
			Size: m.Size, Checksum: m.Checksum, Time: t}
	}
	var ae []httpfeed.Entry
	if s.arch != nil && s.arch.Manifest() != nil {
		archived := s.arch.Manifest().EntriesSince(feed, 0)
		ae = make([]httpfeed.Entry, len(archived))
		for i, e := range archived {
			ae[i] = httpfeed.Entry{Seq: e.ID, Name: e.Name, StagedPath: e.StagedPath,
				Size: e.Size, Checksum: e.Checksum, Time: e.Key(), Archived: true}
		}
	}
	return httpfeed.MergeLogs(se, ae)
}

// HTTPAddr returns the HTTP data plane's bound address ("" when the
// config has no http block).
func (s *Server) HTTPAddr() string {
	if s.httpd == nil {
		return ""
	}
	return s.httpd.Addr()
}

// Ready gates /readyz: nil only after Start has finished startup
// reconciliation — and so, on a promoted standby, only after the
// shipped WAL was replayed and reconciled. Distinct from healthy,
// which is true for the whole up-time.
func (s *Server) Ready() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return fmt.Errorf("server stopped")
	}
	return s.readyErr
}

// failoverParams maps the config failover block onto the cluster
// layer's parameters (defaults applied — a cluster without the block
// still heartbeats at the default cadence; only Auto stays off).
func failoverParams(sp *config.ClusterSpec) cluster.FailoverParams {
	p := cluster.FailoverParams{}
	if sp != nil && sp.Failover != nil {
		p.Lease = sp.Failover.Lease
		p.Heartbeat = sp.Failover.Heartbeat
		p.Auto = sp.Failover.Auto
	}
	return p.WithDefaults()
}

// newShipper builds this node's shipper to the standby at addr.
func (s *Server) newShipper(addr string) *cluster.Shipper {
	name := ""
	if s.shard != nil {
		if self, ok := s.shard.Self(); ok {
			name = self.Name
		}
	}
	return cluster.NewShipper(addr, cluster.ShipperOptions{
		Node:    name,
		Epoch:   s.shard.Epoch,
		Metrics: s.clusterM,
		Alarm:   func(msg string) { s.logger.Raise("cluster", msg) },
	})
}

// getShipper returns the current shipper (nil when not replicating).
func (s *Server) getShipper() *cluster.Shipper {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shipper
}

// bootstrapShipper establishes (or re-establishes) the replication
// stream: snapshot + staged walk + receipt history, then the archive
// backlog so a re-seeded standby also mirrors long-term storage.
func (s *Server) bootstrapShipper(sh *cluster.Shipper) error {
	if err := sh.Bootstrap(s.store, s.stage, s.fs); err != nil {
		return err
	}
	return s.shipArchiveBacklog(sh)
}

// shipArchiveBacklog re-ships every archived file still indexed by the
// receipt store (compacted receipts have the manifest as their only
// record and are not re-seeded — documented in docs/CLUSTER.md). The
// standby applies archive frames idempotently, so re-shipping after a
// reconnect is safe.
func (s *Server) shipArchiveBacklog(sh *cluster.Shipper) error {
	if s.arch == nil || s.arch.Manifest() == nil {
		return nil
	}
	archRoot := s.resolveDir(s.cfg.ArchiveDir, "archive")
	if s.cfg.ArchiveDir == "" {
		return nil
	}
	now := s.clk.Now().UTC()
	for _, meta := range s.store.AllFiles() {
		if !s.arch.Manifest().Has(meta.ID) {
			continue
		}
		if err := s.shipArchived(sh, archRoot, meta, now); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	return nil
}

// shipArchived streams one archived file to the standby.
func (s *Server) shipArchived(sh *cluster.Shipper, archRoot string, meta receipts.FileMeta, at time.Time) error {
	f, err := s.fs.Open(filepath.Join(archRoot, filepath.FromSlash(meta.StagedPath)))
	if err != nil {
		return fmt.Errorf("server: open archived %s for replication: %w", meta.StagedPath, err)
	}
	defer f.Close()
	return sh.ShipArchive(meta, at, f)
}

// replicationLoop keeps one shipper's stream alive: heartbeats renew
// the owner's lease while traffic is idle, and a down stream is
// re-bootstrapped under exponential backoff with jitter (a flapping
// standby must not be hammered at a fixed cadence, and the alarm for a
// persistent outage is raised once, not every tick). While the stream
// is down every shipped commit fails (strict replication), so recovery
// latency here is ingest downtime, not a durability hole. The loop
// exits when its shipper is replaced (AttachStandby spawns a new one).
func (s *Server) replicationLoop(sh *cluster.Shipper) {
	defer s.wg.Done()
	bo := backoff.New(backoff.Policy{
		Base:       200 * time.Millisecond,
		Max:        5 * time.Second,
		Multiplier: 2,
	}, backoff.Seed("rebootstrap-"+sh.Addr()))
	var retryAt time.Time
	for {
		t := s.clk.NewTimer(s.failover.Heartbeat)
		select {
		case <-s.stopCh:
			t.Stop()
			return
		case <-t.C():
		}
		if s.getShipper() != sh {
			return // replaced by AttachStandby
		}
		if sh.Healthy() {
			bo.Reset()
			retryAt = time.Time{}
			if err := sh.Heartbeat(); err != nil {
				s.logger.Logf("cluster", "heartbeat: %v", err)
			}
			continue
		}
		now := s.clk.Now()
		if !retryAt.IsZero() && now.Before(retryAt) {
			continue
		}
		if err := s.bootstrapShipper(sh); err != nil {
			s.logger.Logf("cluster", "replication re-bootstrap: %v", err)
			retryAt = now.Add(bo.Next())
		} else {
			s.logger.Logf("cluster", "replication stream re-established to %s", sh.Addr())
			bo.Reset()
			retryAt = time.Time{}
		}
	}
}

// AttachStandby adopts a new warm standby at addr while this node keeps
// serving: the current shipper (if any) is closed, a fresh one is
// swapped in — arming the commit hooks, so deposits briefly fail until
// the snapshot below lands; sources retry — and the full state
// (snapshot, staged payloads, receipt history, archive backlog) is
// re-seeded before the stream flips to live shipping. Serves the
// protocol Rejoin message; also the path a brand-new node uses to enter
// an existing cluster.
func (s *Server) AttachStandby(addr string) error {
	if s.shard == nil {
		return fmt.Errorf("server: not clustered")
	}
	sh := s.newShipper(addr)
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return fmt.Errorf("server stopped")
	}
	old := s.shipper
	s.shipper = sh
	s.wg.Add(1) // under mu so Stop's wg.Wait cannot start in between
	s.mu.Unlock()
	if old != nil {
		old.Close()
	}
	err := s.bootstrapShipper(sh)
	// The loop retries a failed re-seed; the rejoiner is adopted either
	// way (its standby is already the commit hook target).
	go s.replicationLoop(sh)
	if err != nil {
		s.logger.Logf("cluster", "re-seed standby %s: %v", addr, err)
		return err
	}
	if s.clusterM != nil {
		s.clusterM.Reseeds.Inc()
	}
	s.logger.Logf("cluster", "re-seeded standby %s (hw %d)", addr, sh.AckedHW())
	return nil
}

// healthy gates /healthz: the server is healthy while it is running.
func (s *Server) healthy() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return fmt.Errorf("server stopped")
	}
	return nil
}

// AdminAddr returns the admin endpoint's bound address ("" when the
// configuration has no admin block or Start has not run).
func (s *Server) AdminAddr() string {
	if s.adm == nil {
		return ""
	}
	return s.adm.Addr()
}

// Stop drains the pipeline and closes the receipt store.
func (s *Server) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	s.mu.Unlock()
	close(s.stopCh)
	if s.adm != nil {
		s.adm.Stop()
	}
	if s.httpd != nil {
		s.httpd.Stop()
	}
	if s.ln != nil {
		s.ln.Close()
	}
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.land.Stop()
	// Sources are quiet now; drain in-flight arrivals through the
	// shard and hand-off stages before the delivery engine goes away.
	s.pipe.Stop()
	if s.replay != nil {
		s.replay.Stop()
	}
	s.engine.Stop()
	if s.trans != nil {
		s.trans.remote.close()
	}
	if sh := s.getShipper(); sh != nil {
		sh.Close()
	}
	if s.peers != nil {
		s.peers.close()
	}
	s.wg.Wait()
	s.store.Close()
}

// Addr returns the protocol listener address ("" when not listening).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Store exposes the receipt database (monitoring, tests).
func (s *Server) Store() *receipts.Store { return s.store }

// Logger exposes the monitoring subsystem.
func (s *Server) Logger() *feedlog.Logger { return s.logger }

// Landing exposes the landing manager (deposits from local sources).
func (s *Server) Landing() *landing.Manager { return s.land }

// Archiver exposes the retention/archival component.
func (s *Server) Archiver() *archive.Archiver { return s.arch }

// Engine exposes the delivery engine.
func (s *Server) Engine() *delivery.Engine { return s.engine }

// StatusSummary renders a monitoring snapshot: per-feed counters,
// per-subscriber delivery statistics, and receipt-store state.
func (s *Server) StatusSummary() string {
	var b strings.Builder
	b.WriteString("== feeds ==\n")
	b.WriteString(s.logger.Summary())
	b.WriteString("== subscribers ==\n")
	stats := s.engine.Stats()
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := stats[name]
		state := "online"
		if st.Offline {
			state = "OFFLINE"
		}
		fmt.Fprintf(&b, "%s: delivered=%d bytes=%d failures=%d partition=%d circuit=%s %s\n",
			name, st.Delivered, st.Bytes, st.Failures, st.Partition, st.Circuit, state)
	}
	st := s.store.Stats()
	fmt.Fprintf(&b, "== receipts ==\nfiles=%d expired=%d quarantined=%d feeds=%d commits=%d wal_bytes=%d\n",
		st.Files, st.Expired, st.Quarantined, st.Feeds, st.Commits, st.WALBytes)
	return b.String()
}

// expiryLoop periodically enforces the retention window.
func (s *Server) expiryLoop() {
	defer s.wg.Done()
	for {
		t := s.clk.NewTimer(s.opts.ExpiryInterval)
		select {
		case <-s.stopCh:
			t.Stop()
			return
		case <-t.C():
		}
		if n, err := s.arch.ExpireOnce(); err != nil {
			s.logger.Logf("expiry", "error: %v", err)
		} else if n > 0 {
			s.logger.Logf("expiry", "expired %d files", n)
		}
		if s.arch.Manifest() != nil {
			if n, err := s.CompactReceipts(); err != nil {
				s.logger.Logf("expiry", "compaction error: %v", err)
			} else if n > 0 {
				s.logger.Logf("expiry", "compacted %d archived receipts", n)
			}
		}
	}
}

// CompactReceipts folds fully-settled history out of the receipt store
// so WAL + checkpoint size stays bounded under continuous expiry. A
// receipt is eligible when the file is recorded in the archive manifest
// (the manifest takes over as its only record), every subscriber
// interested in one of its feeds has a delivery receipt, and no active
// replay session holds it in flight.
func (s *Server) CompactReceipts() (int, error) {
	man := s.arch.Manifest()
	if man == nil {
		return 0, nil
	}
	// Snapshot feed → interested subscribers outside the store lock: the
	// eligibility callback runs under it and must stay call-free.
	s.mu.Lock()
	interested := make(map[string][]string)
	for _, sub := range s.cfg.Subscribers {
		for _, feed := range sub.Feeds {
			interested[feed] = append(interested[feed], sub.Name)
		}
	}
	s.mu.Unlock()
	return s.store.CompactExpired(func(f receipts.FileMeta, delivered func(sub string) bool) bool {
		if !man.Has(f.ID) {
			return false
		}
		if s.replay != nil && s.replay.Covers(f.ID) {
			return false
		}
		for _, feed := range f.Feeds {
			for _, sub := range interested[feed] {
				if !delivered(sub) {
					return false
				}
			}
		}
		return true
	})
}

// ReprocessUnmatched re-classifies every quarantined unmatched file
// against the current feed definitions, ingesting those that now
// match. Returns how many files a revised definition claimed.
func (s *Server) ReprocessUnmatched() (int, error) {
	quarantine := filepath.Join(s.stage, "_unmatched")
	var claimed int
	err := walkDir(quarantine, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if d.IsDir() {
			return nil
		}
		rel, rerr := filepath.Rel(quarantine, path)
		if rerr != nil {
			return rerr
		}
		name := filepath.ToSlash(rel)
		if len(s.class.Classify(name)) == 0 {
			return nil // still unmatched
		}
		if ierr := s.ingestFrom(quarantine, rel); ierr != nil {
			s.logger.Logf("unmatched", "reingest %s: %v", name, ierr)
			return nil
		}
		claimed++
		return nil
	})
	return claimed, err
}

// monitorLoop periodically checks feed progress (stalls) and interval
// completeness against configured expectations (§3.2).
func (s *Server) monitorLoop() {
	defer s.wg.Done()
	for {
		t := s.clk.NewTimer(s.opts.MonitorInterval)
		select {
		case <-s.stopCh:
			t.Stop()
			return
		case <-t.C():
		}
		s.logger.CheckProgress(0)
		s.logger.CheckCompleteness(s.opts.MonitorInterval)
	}
}

// analyzeLoop periodically runs the feed analyzer, logging new-feed
// candidates and raising alarms for suspected false negatives (§5's
// proactive monitoring as a background activity).
func (s *Server) analyzeLoop() {
	defer s.wg.Done()
	for {
		t := s.clk.NewTimer(s.opts.AnalyzeInterval)
		select {
		case <-s.stopCh:
			t.Stop()
			return
		case <-t.C():
		}
		rep := s.Analyze()
		for _, nf := range rep.NewFeeds {
			s.logger.Logf("analyzer", "new feed candidate: %s", nf.Describe())
		}
		for _, fn := range rep.FalseNegatives {
			s.logger.Raise(fn.Feed, fmt.Sprintf(
				"possible false negatives: %d unmatched files look like %s (similarity %.2f)",
				fn.Suggested.Support, fn.Suggested.Pattern, fn.Similarity))
		}
		for _, sub := range rep.Subfeeds {
			for j, outlier := range sub.Outlier {
				if outlier {
					s.logger.Raise(sub.Feed, fmt.Sprintf(
						"possible false positives: subfeed %s (%d files) is a structural outlier",
						sub.Subfeeds[j].Pattern, sub.Subfeeds[j].Support))
				}
			}
		}
	}
}

// IngestLanding classifies, normalizes, records, and schedules one
// deposited file. It is the landing manager's ingest callback and the
// heart of the §3 pipeline.
func (s *Server) IngestLanding(rel string) error {
	return s.ingestFrom(s.land.Dir(), rel)
}

// ingestFrom routes a file under an arbitrary source root (the
// landing zone, or the unmatched quarantine during reprocessing)
// through the sharded pipeline and blocks until its receipt is
// durable — so the contract visible to sources is unchanged: a nil
// return still means the arrival survives a crash.
func (s *Server) ingestFrom(root, rel string) error {
	return s.pipe.Ingest(root, rel)
}

// processArrival is the pipeline's classify→stage→commit stage: it
// classifies one file, quarantines it when unmatched (no metas), or
// stages it and records the receipt. stageArrival produces the staged
// outputs — one for a plan-less feed, the primary plus any derived
// files for a feed with a plan {} block — and every arrival shares one
// tail: ship each output, clear landing, commit the receipt family in
// one WAL transaction, log. Every output is durable before the landing
// file goes. It runs on shard workers, so everything it touches —
// classifier, logger, store, analyzer samples — is concurrency-safe;
// per-source ordering comes from the pipeline's hash partitioning.
func (s *Server) processArrival(root, rel string) ([]receipts.FileMeta, error) {
	name := filepath.ToSlash(rel)
	src := filepath.Join(root, rel)
	now := s.clk.Now()

	matches := s.class.Classify(name)
	if len(matches) == 0 {
		s.logger.FileUnmatched(name)
		// Keep the bytes — a future revised definition may claim them —
		// but move them out of landing so scans stay cheap.
		dst := filepath.Join(s.stage, "_unmatched", rel)
		res, err := normalize.ProcessFS(s.fs, src, dst, config.CompressNone)
		if err != nil {
			return nil, err
		}
		s.recordUnmatched(name, now, res.Size)
		return nil, s.fs.Remove(src)
	}

	primary := matches[0]
	metas, err := s.stageArrival(primary, name, src)
	if err != nil {
		return nil, err
	}
	for i := range metas {
		if err := s.shipStaged(&metas[i]); err != nil {
			return nil, err
		}
	}
	if err := s.fs.Remove(src); err != nil {
		return nil, fmt.Errorf("server: clear landing %s: %w", name, err)
	}

	var dataTime time.Time
	metas[0].Feeds, dataTime = classified(matches) // the primary keeps every classified feed
	for i := range metas {
		m := &metas[i]
		// A receipt stays in memory for the file's whole retention
		// window. The staged path usually ends in the arrival name: let
		// one string back both instead of also keeping the decoder's
		// copy alive.
		m.Name = name
		if strings.HasSuffix(m.StagedPath, name) {
			m.Name = m.StagedPath[len(m.StagedPath)-len(name):]
		}
		m.Arrived = now
		m.DataTime = dataTime
	}
	ids, err := s.store.RecordArrivalDerived(metas[0], metas[1:])
	if err != nil {
		return nil, err
	}
	for i := range metas {
		m := &metas[i]
		m.ID = ids[i]
		if i > 0 {
			m.Origin = ids[0]
		}
		for _, feed := range m.Feeds {
			s.logger.FileClassified(feed, m.Name, m.Size, dataTime)
		}
	}
	return metas, nil
}

// classified is what a classification decides for an arrival's
// receipt: every matched feed, primary first, and the data time the
// primary's name carries (zero if none).
func classified(matches []classifier.Match) ([]string, time.Time) {
	feeds := make([]string, len(matches))
	for i, m := range matches {
		feeds[i] = m.Feed.Path
	}
	var dataTime time.Time
	if ts, ok := matches[0].Fields.Time.Timestamp(time.UTC); ok {
		dataTime = ts
	}
	return feeds, dataTime
}

// stageArrival stages a classified arrival under its primary feed: the
// feed's plan when it has one, else a straight normalize.ProcessFS —
// the trivial plan. The primary output comes first.
func (s *Server) stageArrival(primary classifier.Match, name, src string) ([]receipts.FileMeta, error) {
	if prog := s.plans.For(primary.Feed.Path); prog != nil {
		in, err := s.fs.Open(src)
		if err != nil {
			return nil, fmt.Errorf("server: open landing %s: %w", name, err)
		}
		metas, err := s.runPlanned(prog, primary.Feed, name, primary.Fields, in, 0)
		in.Close()
		if err != nil {
			return nil, fmt.Errorf("server: plan %s: %w", name, err)
		}
		return metas, nil
	}
	stagedName, err := normalize.StagedName(primary.Feed, name, primary.Fields)
	if err != nil {
		return nil, fmt.Errorf("server: staging name for %s: %w", name, err)
	}
	res, err := normalize.ProcessFS(s.fs, src, filepath.Join(s.stage, stagedName), primary.Feed.Compress)
	if err != nil {
		return nil, fmt.Errorf("server: normalize %s: %w", name, err)
	}
	return []receipts.FileMeta{{
		StagedPath: filepath.ToSlash(stagedName),
		Size:       res.Size,
		Checksum:   res.Checksum,
	}}, nil
}

// shipStaged streams one staged file to the standby before the receipt
// that references it commits — the same staged-then-logged ordering
// the owner keeps locally. Shipping before the landing file is removed
// keeps a failed ship retryable by rescan. No-op without a shipper.
func (s *Server) shipStaged(meta *receipts.FileMeta) error {
	sh := s.getShipper()
	if sh == nil {
		return nil
	}
	f, err := s.fs.Open(filepath.Join(s.stage, filepath.FromSlash(meta.StagedPath)))
	if err != nil {
		return fmt.Errorf("server: open staged %s for replication: %w", meta.StagedPath, err)
	}
	defer f.Close()
	return sh.ShipFile(meta.StagedPath, f, meta.Size, meta.Checksum)
}

// recordUnmatched retains a bounded sample for the analyzer.
func (s *Server) recordUnmatched(name string, at time.Time, size int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.unmatched) < s.opts.AnalyzerSample {
		s.unmatched = append(s.unmatched, discovery.Observation{Name: name, Arrived: at, Size: size})
	}
}

// AddSubscriber registers a subscriber at runtime: its interest set is
// resolved against the installed feeds, transport routing is set up,
// and the full available history is queued as backfill (§4.2). Only
// available when the server built its own transport.
func (s *Server) AddSubscriber(sub *config.Subscriber) error {
	if err := s.addSubscriberDeferred(sub); err != nil {
		return err
	}
	s.engine.QueueBackfill(sub.Name)
	return nil
}

// addSubscriberDeferred registers a subscriber without queueing its
// staged backlog — the replay handoff needs the gap between
// registration and the backfill snapshot.
func (s *Server) addSubscriberDeferred(sub *config.Subscriber) error {
	if s.trans == nil {
		return fmt.Errorf("server: runtime subscribers need the built-in transport")
	}
	if err := s.cfg.ResolveSubscriber(sub); err != nil {
		return err
	}
	if sub.Retry == 0 {
		sub.Retry = 30 * time.Second
	}
	if sub.Host != "" {
		s.trans.setHost(sub.Name, sub.Host)
	} else {
		if err := s.checkLocalDest(sub); err != nil {
			return err
		}
		s.trans.local.Register(sub.Name, s.root)
	}
	if err := s.engine.AddSubscriberDeferred(sub); err != nil {
		return err
	}
	s.mu.Lock()
	s.cfg.Subscribers = append(s.cfg.Subscribers, sub)
	s.mu.Unlock()
	s.logger.Logf("subscriber", "%s added at runtime (%d feeds)", sub.Name, len(sub.Feeds))
	return nil
}

// SubscribeRemote serves a runtime SUBSCRIBE message: register the
// subscriber (or find it, on re-subscription), snapshot its staged
// backlog as live backfill, and — when FROM asks for history older
// than the staging window — start a replay session over the archive
// with that snapshot as the skip set. The snapshot is the handoff
// watermark: everything staged at this instant belongs to the live
// path, everything older only exists in the archive manifest, and a
// file in both (archived mid-session) is claimed by exactly one side.
func (s *Server) SubscribeRemote(m protocol.Subscribe) error {
	if !m.From.IsZero() && s.replay == nil {
		return fmt.Errorf("server: FROM subscription needs an archive with a manifest (replay block + archive dir)")
	}
	s.mu.Lock()
	var sub *config.Subscriber
	for _, existing := range s.cfg.Subscribers {
		if existing.Name == m.Name {
			sub = existing
			break
		}
	}
	s.mu.Unlock()
	if sub == nil {
		sub = &config.Subscriber{
			Name:          m.Name,
			Host:          m.Host,
			Dest:          m.Dest,
			Subscriptions: append([]string(nil), m.Feeds...),
			Class:         m.Class,
		}
		if err := s.addSubscriberDeferred(sub); err != nil {
			return err
		}
	}
	skip := s.engine.QueueBackfill(sub.Name)
	if m.From.IsZero() {
		return nil
	}
	skipSet := make(map[uint64]bool, len(skip))
	for _, id := range skip {
		skipSet[id] = true
	}
	return s.replay.Start(sub.Name, sub.Feeds, m.From, skipSet)
}

// Replay exposes the replay manager (nil without a replay block).
func (s *Server) Replay() *replay.Manager { return s.replay }

// Punctuate propagates end-of-batch punctuation for a feed.
func (s *Server) Punctuate(feed string) { s.engine.Punctuate(feed) }

// AnalyzerReport is the feed analyzer's periodic output (§5).
type AnalyzerReport struct {
	// NewFeeds are suggested definitions for unmatched files (§5.1).
	NewFeeds []discovery.AtomicFeed
	// FalseNegatives link unmatched clusters to existing feeds (§5.2).
	FalseNegatives []analyzer.FalseNegative
	// Subfeeds hold the per-feed false-positive analysis (§5.3).
	Subfeeds []analyzer.SubfeedReport
	// SuggestedGroups bundles structurally similar discovered feeds
	// into candidate feed groups (the §5.1 future-work extension).
	SuggestedGroups []analyzer.FeedGroup
}

// Analyze runs the feed analyzer over the retained observation
// samples.
func (s *Server) Analyze() AnalyzerReport {
	s.mu.Lock()
	unmatched := make([]discovery.Observation, len(s.unmatched))
	copy(unmatched, s.unmatched)
	s.mu.Unlock()

	// The matched streams are read back from the receipt store — every
	// classified arrival already has its name, arrival time and size
	// there — newest AnalyzerSample files per feed, so the sample
	// follows current traffic and survives a restart.
	var defs []analyzer.FeedDef
	matched := make(map[string][]discovery.Observation)
	for _, f := range s.cfg.Feeds {
		for _, p := range f.Patterns {
			defs = append(defs, analyzer.FeedDef{Name: f.Path, Pattern: p})
		}
		if len(f.Patterns) == 0 {
			continue // derived feeds have no filename stream to analyze
		}
		files := s.store.FilesInFeed(f.Path)
		if len(files) == 0 {
			continue
		}
		if n := s.opts.AnalyzerSample; len(files) > n {
			files = files[len(files)-n:]
		}
		obs := make([]discovery.Observation, len(files))
		for i, m := range files {
			obs[i] = discovery.Observation{Name: m.Name, Arrived: m.Arrived, Size: m.Size}
		}
		matched[f.Path] = obs
	}
	var rep AnalyzerReport
	an := discovery.New(discovery.DefaultOptions())
	for _, o := range unmatched {
		an.Add(o)
	}
	rep.NewFeeds = an.Feeds()
	rep.SuggestedGroups = analyzer.GroupFeeds(rep.NewFeeds, 0.8)
	rep.FalseNegatives = analyzer.DetectFalseNegatives(defs, unmatched, analyzer.Options{})
	for feed, obs := range matched {
		rep.Subfeeds = append(rep.Subfeeds, analyzer.DetectFalsePositives(feed, obs, analyzer.Options{}))
	}
	return rep
}

// Deposit is a convenience for in-process sources: write into landing
// and ingest immediately.
func (s *Server) Deposit(name string, data []byte) error {
	return s.land.DepositUnchecked(name, bytes.NewReader(data))
}

// FeedPattern is a helper for tools: compile a pattern or die.
func FeedPattern(src string) (*pattern.Pattern, error) { return pattern.Compile(src) }
