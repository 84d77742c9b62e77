package server

import (
	"strconv"
	"time"

	"bistro/internal/backoff"
	"bistro/internal/delivery"
	"bistro/internal/feedlog"
	"bistro/internal/metrics"
	"bistro/internal/receipts"
	"bistro/internal/replay"
	"bistro/internal/scheduler"
)

// serverMetrics holds the gauge families the server refreshes from
// component snapshots at scrape time (RefreshMetrics). Keeping these
// out of the hot paths means instrumentation there stays a handful of
// atomic adds; everything derivable from an existing Stats() call is
// paid for only when someone actually scrapes /metrics.
type serverMetrics struct {
	// Per-subscriber delivery state.
	breaker *metrics.GaugeVec // 0=closed 1=half-open 2=open
	offline *metrics.GaugeVec // 1 when flagged offline

	// Scheduler load.
	queueDepth *metrics.GaugeVec // {partition, lane}
	delayed    *metrics.GaugeVec // {partition}
	inflight   *metrics.Gauge

	// Receipt store.
	files       *metrics.Gauge
	expired     *metrics.Gauge
	quarantined *metrics.Gauge
	feeds       *metrics.Gauge

	// Per-feed monitoring counters mirrored from feedlog.
	feedFiles     *metrics.GaugeVec
	feedBytes     *metrics.GaugeVec
	feedDelivered *metrics.GaugeVec
	feedFailures  *metrics.GaugeVec
	unmatched     *metrics.Gauge
	alarms        *metrics.Gauge

	// Startup reconciliation outcome (set once per Start).
	reconcile *metrics.GaugeVec // {kind}

	// The one counter here bumped on a hot path: uploads refused
	// because their content failed Upload.CRC.
	uploadCRCFailures *metrics.Counter
}

func newServerMetrics(r *metrics.Registry) *serverMetrics {
	return &serverMetrics{
		breaker: r.GaugeVec("bistro_delivery_breaker_state",
			"Circuit breaker state per subscriber (0=closed, 1=half-open, 2=open).", "subscriber"),
		offline: r.GaugeVec("bistro_delivery_subscriber_offline",
			"1 when the subscriber is flagged offline.", "subscriber"),
		queueDepth: r.GaugeVec("bistro_scheduler_queue_depth",
			"Jobs waiting per scheduler partition and lane.", "partition", "lane"),
		delayed: r.GaugeVec("bistro_scheduler_delayed_depth",
			"Jobs parked in the delay heap per partition (retry backoff).", "partition"),
		inflight: r.Gauge("bistro_scheduler_inflight",
			"Jobs claimed by delivery workers right now."),
		files: r.Gauge("bistro_receipts_files",
			"Arrival receipts within the retention window."),
		expired: r.Gauge("bistro_receipts_expired",
			"Receipts past the retention window."),
		quarantined: r.Gauge("bistro_receipts_quarantined",
			"Receipts excluded from delivery by reconciliation."),
		feeds: r.Gauge("bistro_receipts_feeds",
			"Distinct feeds with at least one receipt."),
		feedFiles: r.GaugeVec("bistro_feed_files",
			"Classified arrivals per feed.", "feed"),
		feedBytes: r.GaugeVec("bistro_feed_bytes",
			"Classified arrival volume per feed.", "feed"),
		feedDelivered: r.GaugeVec("bistro_feed_delivered",
			"Successful deliveries per feed across subscribers.", "feed"),
		feedFailures: r.GaugeVec("bistro_feed_delivery_failures",
			"Failed delivery attempts per feed.", "feed"),
		unmatched: r.Gauge("bistro_classifier_unmatched_files",
			"Files no feed definition claimed (quarantined for reprocessing)."),
		alarms: r.Gauge("bistro_alarms_total",
			"Monitoring alarms raised since startup."),
		reconcile: r.GaugeVec("bistro_reconcile_outcomes",
			"Startup reconciliation outcomes by kind.", "kind"),
		uploadCRCFailures: r.Counter("bistro_ingest_upload_crc_failures_total",
			"Uploads refused because their content failed Upload.CRC."),
	}
}

// breakerStateValue encodes a breaker state string as a gauge value.
func breakerStateValue(state string) int64 {
	switch state {
	case backoff.HalfOpen.String():
		return 1
	case backoff.Open.String():
		return 2
	default:
		return 0
	}
}

// RefreshMetrics re-derives every snapshot-backed gauge from component
// state. The admin server calls it before each /metrics scrape; tests
// may call it directly.
func (s *Server) RefreshMetrics() {
	m := s.metrics
	if m == nil {
		return
	}
	for name, st := range s.engine.Stats() {
		m.breaker.With(name).Set(breakerStateValue(st.Circuit))
		var off int64
		if st.Offline {
			off = 1
		}
		m.offline.With(name).Set(off)
	}
	sched := s.engine.Scheduler()
	for i, pc := range sched.Partitions() {
		name := pc.Name
		if name == "" {
			name = strconv.Itoa(i)
		}
		m.queueDepth.With(name, "realtime").Set(int64(sched.QueueLen(i, scheduler.LaneRealtime)))
		m.queueDepth.With(name, "backfill").Set(int64(sched.QueueLen(i, scheduler.LaneBackfill)))
		m.delayed.With(name).Set(int64(sched.DelayedLen(i)))
	}
	m.inflight.Set(int64(sched.InflightTotal()))
	st := s.store.Stats()
	m.files.Set(int64(st.Files))
	m.expired.Set(int64(st.Expired))
	m.quarantined.Set(int64(st.Quarantined))
	m.feeds.Set(int64(st.Feeds))
	for feed, fs := range s.logger.AllStats() {
		m.feedFiles.With(feed).Set(fs.Files)
		m.feedBytes.With(feed).Set(fs.Bytes)
		m.feedDelivered.With(feed).Set(fs.Delivered)
		m.feedFailures.With(feed).Set(fs.Failures)
	}
	m.unmatched.Set(s.logger.Unmatched())
	m.alarms.Set(int64(len(s.logger.Alarms())))
}

// recordReconcile publishes one startup reconciliation report.
func (s *Server) recordReconcile(rep *ReconcileReport) {
	m := s.metrics
	if m == nil || rep == nil {
		return
	}
	m.reconcile.With("checked").Set(int64(rep.Checked))
	m.reconcile.With("missing").Set(int64(rep.Missing))
	m.reconcile.With("corrupt").Set(int64(rep.Corrupt))
	m.reconcile.With("archive_moves").Set(int64(rep.ArchiveMoves))
	m.reconcile.With("reingested").Set(int64(rep.Reingested))
	m.reconcile.With("orphaned").Set(int64(rep.Orphaned))
}

// Metrics exposes the server's metric registry (admin endpoint, tests).
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// PartitionStatus is one scheduler partition's live load in a Status
// snapshot.
type PartitionStatus struct {
	Name     string `json:"name"`
	Realtime int    `json:"realtime"`
	Backfill int    `json:"backfill"`
	Delayed  int    `json:"delayed"`
}

// NodeStatus describes the node's cluster position in a Status
// snapshot.
type NodeStatus struct {
	// Name is the node name ("" on a single-node server).
	Name string `json:"name,omitempty"`
	// Role is "single", "owner", or "promoted" (serving another node's
	// shards after a failover).
	Role string `json:"role"`
	// Ready mirrors /readyz: startup reconciliation (and, when
	// promoted, shipped-WAL replay) has completed.
	Ready bool `json:"ready"`
	// PromotedFrom lists failed nodes whose shards this node serves.
	PromotedFrom []string `json:"promoted_from,omitempty"`
	// ReplicationOK is true while the standby stream is up (absent
	// when the node has no standby).
	ReplicationOK *bool `json:"replication_ok,omitempty"`
	// ReplicationHW is the standby's acknowledged high-watermark.
	ReplicationHW uint64 `json:"replication_hw,omitempty"`
	// Epoch is the cluster ownership epoch this node's shard map holds
	// (the fencing token; bumps on every promotion).
	Epoch uint64 `json:"epoch,omitempty"`
	// Standby is the replication address this node currently ships to
	// (changes when a rejoined node is adopted).
	Standby string `json:"standby,omitempty"`
}

// Status is the structured snapshot served at /statusz and rendered by
// `bistroctl status`.
type Status struct {
	Time        time.Time                           `json:"time"`
	Node        NodeStatus                          `json:"node"`
	Feeds       map[string]feedlog.FeedStats        `json:"feeds"`
	Unmatched   int64                               `json:"unmatched"`
	Subscribers map[string]delivery.SubscriberStats `json:"subscribers"`
	Channels    []delivery.ChannelStats             `json:"channels,omitempty"`
	Receipts    receipts.Stats                      `json:"receipts"`
	Partitions  []PartitionStatus                   `json:"partitions"`
	Inflight    int                                 `json:"inflight"`
	Replay      []replay.SessionStatus              `json:"replay,omitempty"`
	Alarms      []feedlog.Alarm                     `json:"alarms,omitempty"`
}

// nodeStatus assembles the cluster half of a Status snapshot.
func (s *Server) nodeStatus() NodeStatus {
	ns := NodeStatus{Role: "single", Ready: s.Ready() == nil}
	if s.shard == nil {
		return ns
	}
	ns.Name = s.shard.SelfName()
	ns.Role = "owner"
	ns.Epoch = s.shard.Epoch()
	if from := s.shard.PromotedFrom(ns.Name); len(from) > 0 {
		ns.Role = "promoted"
		ns.PromotedFrom = from
	}
	if sh := s.getShipper(); sh != nil {
		ok := sh.Healthy()
		ns.ReplicationOK = &ok
		ns.ReplicationHW = sh.AckedHW()
		ns.Standby = sh.Addr()
	}
	return ns
}

// maxStatusAlarms bounds the alarm tail included in a Status snapshot.
const maxStatusAlarms = 20

// Status assembles the live structured snapshot behind /statusz.
func (s *Server) Status() Status {
	sched := s.engine.Scheduler()
	parts := sched.Partitions()
	ps := make([]PartitionStatus, len(parts))
	for i, pc := range parts {
		name := pc.Name
		if name == "" {
			name = strconv.Itoa(i)
		}
		ps[i] = PartitionStatus{
			Name:     name,
			Realtime: sched.QueueLen(i, scheduler.LaneRealtime),
			Backfill: sched.QueueLen(i, scheduler.LaneBackfill),
			Delayed:  sched.DelayedLen(i),
		}
	}
	alarms := s.logger.Alarms()
	if len(alarms) > maxStatusAlarms {
		alarms = alarms[len(alarms)-maxStatusAlarms:]
	}
	var sessions []replay.SessionStatus
	if s.replay != nil {
		sessions = s.replay.Sessions()
	}
	return Status{
		Time:        s.clk.Now(),
		Node:        s.nodeStatus(),
		Feeds:       s.logger.AllStats(),
		Unmatched:   s.logger.Unmatched(),
		Subscribers: s.engine.Stats(),
		Channels:    s.engine.ChannelStats(),
		Receipts:    s.store.Stats(),
		Partitions:  ps,
		Inflight:    sched.InflightTotal(),
		Replay:      sessions,
		Alarms:      alarms,
	}
}
