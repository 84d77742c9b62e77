package cluster

import (
	"encoding/gob"
	"time"

	"bistro/internal/metrics"
	"bistro/internal/protocol"
	"bistro/internal/receipts"
)

// Replication wire messages. They travel over the same protocol.Conn
// framing as the source/subscriber protocol, on a dedicated
// owner→standby connection. The stream is strictly request/response:
// every Rep* message is answered by a RepAck carrying the standby's
// acknowledged high-watermark, so the owner always knows exactly how
// much of its history is safe on the peer.

// RepHello opens a replication stream and names the shipping owner.
type RepHello struct {
	// Node is the owner's node name.
	Node string
	// Epoch is the owner's cluster ownership epoch. The standby tracks
	// the highest epoch it has seen and nacks a hello from an older one
	// — a partitioned old owner waking up after its standby was
	// promoted elsewhere must not re-open a stream (fencing). Zero
	// means "no epoch" (unclustered shippers, older peers) and is never
	// fenced.
	Epoch uint64
}

// RepHeartbeat is the owner's lease renewal: sent on the idle
// replication stream at the configured heartbeat cadence, it proves
// the owner is alive even when no traffic is committing. The standby's
// lease monitor measures owner silence across all frames (heartbeats
// and shipped traffic alike); lease expiry triggers self-promotion.
type RepHeartbeat struct {
	Seq uint64
	// Epoch is the owner's ownership epoch, checked like RepHello's.
	Epoch uint64
}

// RepArchive ships one archive promotion: the owner moved an expired
// staged file into its archive tree and appended its manifest entries,
// and the standby must mirror both so a promoted survivor serves
// replay/history, not just live traffic. Data carries the archived
// content so the standby needs no surviving staged copy — during a
// live re-seed the staged file may already be gone on both ends.
type RepArchive struct {
	Seq uint64
	// Meta is the archived file's receipt metadata (StagedPath is the
	// archive-relative destination, as in the manifest).
	Meta receipts.FileMeta
	// ArchivedAt is the owner's archive timestamp for manifest entries.
	ArchivedAt time.Time
	// Data is the archived file content.
	Data []byte
	// CRC is the IEEE CRC32 of Data.
	CRC uint32
}

// RepSnapshot re-seeds the standby's receipt database: State is a full
// gob checkpoint (the owner's in-memory state at bootstrap, or its
// latest checkpoint thereafter). The standby installs it atomically
// and resets its shipped WAL — snapshot + subsequent batches is always
// a complete history.
type RepSnapshot struct {
	// Seq is the stream sequence number (monotone per connection).
	Seq uint64
	// State is the gob-encoded checkpoint.
	State []byte
}

// RepFile ships one staged payload so the standby's staging tree keeps
// up with the receipts that reference it. Files ship before the
// arrival receipt commits, mirroring the owner's own ordering (staged
// bytes durable before the receipt points at them).
type RepFile struct {
	Seq uint64
	// Path is the staging-relative path.
	Path string
	// Data is the staged content.
	Data []byte
	// CRC is the IEEE CRC32 of Data.
	CRC uint32
}

// RepBatch ships one receipt-WAL group-commit batch: the payloads of
// every transaction that shared the owner's flush window, in commit
// order. The standby appends them to its own WAL under a single fsync
// — the same amortization the owner's group commit bought.
type RepBatch struct {
	Seq uint64
	// Payloads are the framed transaction payloads, commit order.
	Payloads [][]byte
}

// RepAck answers every Rep* message.
type RepAck struct {
	OK    bool
	Error string
	// HW is the standby's acknowledged high-watermark: the Seq of the
	// last stream message it made durable.
	HW uint64
	// Epoch is the highest ownership epoch the standby has seen. On a
	// fencing nack it tells the stale owner how far behind it is.
	Epoch uint64
}

// RepFile and RepArchive are protocol.Payloaders: their content travels
// raw behind the envelope. RepBatch and RepSnapshot stay plain gob.
var _, _ protocol.Payloader = RepFile{}, RepArchive{}

func (m RepFile) PayloadBytes() []byte        { return m.Data }
func (m RepFile) WithPayload(b []byte) any    { m.Data = b; return m }
func (m RepArchive) PayloadBytes() []byte     { return m.Data }
func (m RepArchive) WithPayload(b []byte) any { m.Data = b; return m }

func init() {
	gob.Register(RepHello{})
	gob.Register(RepHeartbeat{})
	gob.Register(RepSnapshot{})
	gob.Register(RepFile{})
	gob.Register(RepBatch{})
	gob.Register(RepArchive{})
	gob.Register(RepAck{})
}

// Metrics holds the replication instrumentation on both ends. Nil (or
// any nil field) disables that series.
type Metrics struct {
	// ShipBatches counts WAL batches shipped by the owner.
	ShipBatches *metrics.Counter
	// ShipFiles counts staged files shipped by the owner.
	ShipFiles *metrics.Counter
	// ShipBytes counts replicated bytes (WAL payloads + file content).
	ShipBytes *metrics.Counter
	// ShipFailures counts owner-side replication failures (dial, send,
	// nack) — each one fails the commit that needed it.
	ShipFailures *metrics.Counter
	// StandbyFrames counts stream messages the standby made durable.
	StandbyFrames *metrics.Counter
	// StandbyFailures counts standby-side fsync/decode failures; every
	// one raises an alarm and nacks the frame (never a silent drop).
	StandbyFailures *metrics.Counter
	// AckedHW tracks the owner's view of the standby high-watermark.
	AckedHW *metrics.Gauge
	// Promotions counts standby → owner takeovers.
	Promotions *metrics.Counter
	// Fenced counts stale-epoch traffic refused (replication hellos,
	// heartbeats, and relayed writes from a superseded owner).
	Fenced *metrics.Counter
	// Heartbeats counts lease renewals shipped on the idle stream.
	Heartbeats *metrics.Counter
	// LeaseExpiries counts owner leases the standby saw expire (each
	// one triggers self-promotion when failover.auto is on).
	LeaseExpiries *metrics.Counter
	// Reseeds counts live standby re-seeds served (a recovered node
	// rejoining as this node's new standby).
	Reseeds *metrics.Counter
}

// NewMetrics registers the bistro_cluster_* families on r.
func NewMetrics(r *metrics.Registry) *Metrics {
	return &Metrics{
		ShipBatches: r.Counter("bistro_cluster_ship_batches_total",
			"Receipt-WAL group-commit batches shipped to the standby."),
		ShipFiles: r.Counter("bistro_cluster_ship_files_total",
			"Staged files shipped to the standby."),
		ShipBytes: r.Counter("bistro_cluster_ship_bytes_total",
			"Bytes replicated to the standby (WAL payloads + staged content)."),
		ShipFailures: r.Counter("bistro_cluster_ship_failures_total",
			"Owner-side replication failures (each fails its commit)."),
		StandbyFrames: r.Counter("bistro_cluster_standby_frames_total",
			"Replication stream messages made durable by the standby."),
		StandbyFailures: r.Counter("bistro_cluster_standby_failures_total",
			"Standby-side replication fsync/decode failures (alarmed, nacked)."),
		AckedHW: r.Gauge("bistro_cluster_acked_highwatermark",
			"Last stream sequence the standby acknowledged as durable."),
		Promotions: r.Counter("bistro_cluster_promotions_total",
			"Standby promotions to serving owner."),
		Fenced: r.Counter("bistro_cluster_fenced_total",
			"Stale-epoch traffic refused (hellos, heartbeats, relayed writes)."),
		Heartbeats: r.Counter("bistro_cluster_heartbeats_total",
			"Lease-renewal heartbeats shipped on the replication stream."),
		LeaseExpiries: r.Counter("bistro_cluster_lease_expiries_total",
			"Owner leases seen expiring by the standby's failure detector."),
		Reseeds: r.Counter("bistro_cluster_reseeds_total",
			"Live standby re-seeds served to rejoining nodes."),
	}
}
