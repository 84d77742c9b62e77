package experiments

import (
	"bytes"
	"fmt"
	"time"

	"bistro/internal/config"
	"bistro/internal/delivery"
	"bistro/internal/metrics"
	"bistro/internal/oracle"
)

// E18FanOut measures what per-feed delivery channels buy on the
// wide-fan-out path: N warehouse subscribers all taking the same feed.
// With individual per-subscriber jobs, every delivery re-reads the
// staged payload, so staging I/O grows as O(subscribers x files); a
// channel performs one staging read per file and fans the bytes out to
// every attached member, so staging I/O stays O(files) no matter how
// wide the group gets. The sweep runs the same workload at 10 to 100k
// members and checks exactly-once per member (zero duplicates, zero
// misses) at every width.
func E18FanOut(o Options) (Table, error) {
	t := Table{
		ID:     "E18",
		Title:  "per-feed channel fan-out: one staging read per file at any width",
		Claim:  "warehouse-style fan-out (many subscribers, one feed, §2.3, §4.2) must not multiply staging reads by the subscriber count; a shared channel read keeps propagation flat as the group grows",
		Header: []string{"subscribers", "delivery", "staging bytes", "bytes/file", "p99 propagation", "dup", "missed"},
	}
	files, size := 4, 4096
	const wire = 50 * time.Microsecond
	type rowCfg struct {
		subs    int
		channel bool
		wire    time.Duration
	}
	// Matched-width pairs (with modeled wire time, so individual
	// claims fragment the way real transfers make them), then the
	// channel-only width sweep.
	rows := []rowCfg{
		{10, false, wire}, {100, false, wire},
		{10, true, wire}, {100, true, wire},
		{1000, true, 0}, {10000, true, 0}, {100000, true, 0},
	}
	if o.Quick {
		rows = rows[:5]
	}
	for _, rc := range rows {
		r, err := E18FanOutTrial(E18TrialConfig{
			Subscribers:     rc.subs,
			Files:           files,
			FileSize:        size,
			Channel:         rc.channel,
			TransferLatency: rc.wire,
		})
		if err != nil {
			return t, err
		}
		mode := "individual"
		if rc.channel {
			mode = "channel"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", rc.subs),
			mode,
			fmt.Sprintf("%d", r.StagingBytes),
			fmt.Sprintf("%d", r.StagingBytes/int64(files)),
			ms(r.PropagationP99),
			fmt.Sprintf("%d", r.Duplicates),
			fmt.Sprintf("%d", r.Missed),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("every trial stages %d files of %d bytes on one feed and waits for every member to hold every file", files, size),
		fmt.Sprintf("rows up to 100 members model %s of wire time per transfer; without it the scheduler's same-file locality heuristic hides the individual path's read amplification by batching an all-idle burst", wire),
		"individual delivery re-reads staging once per fragmented claim, approaching subscribers x file size per file as transfers hold members busy",
		"channel rows read staging once per file regardless of width; the group receipt keeps the receipt WAL at O(groups), not O(subscribers)",
		"the width sweep (1000+) omits wire time so the row measures broker overhead, not modeled transfer sleeps",
		"dup/missed count transport-level deliveries per (member, file) against exactly one")
	if o.Quick {
		t.Notes = append(t.Notes, "quick mode caps the sweep at 1000 members; the full run extends to 100000")
	}
	return t, nil
}

// E18TrialConfig parameterizes one fan-out trial.
type E18TrialConfig struct {
	// Subscribers is the fan-out width (all on one feed).
	Subscribers int
	// Files and FileSize describe the staged workload.
	Files    int
	FileSize int
	// Channel routes the feed through one shared channel; false runs
	// the pre-channel path of individual per-subscriber jobs.
	Channel bool
	// TransferLatency models per-delivery wire time. Without it every
	// individual job is claimed while all subscribers are idle, and
	// the scheduler's same-file locality heuristic batches the whole
	// burst behind one read — real transfers hold subscribers busy,
	// fragmenting those claims.
	TransferLatency time.Duration
	// Ungrouped turns the scheduler's same-file locality heuristic off,
	// so every individual job reads the staged file itself: the read
	// amplification is exactly subscribers × file size per file,
	// whatever the timing of the claims. Test-only: TestE18Shape's
	// baseline sets it; the E18 table's individual rows keep grouping on.
	Ungrouped bool
}

// E18TrialResult carries one trial's measurements.
type E18TrialResult struct {
	// StagingBytes is payload bytes read from the staging area (the
	// engine's bistro_delivery_staging_read_bytes_total counter).
	StagingBytes int64
	// WireBytes is payload bytes handed to the transport (grows with
	// width in every mode — the fan-out itself is irreducible).
	WireBytes int64
	// PropagationP99 is the 99th-percentile stage->member latency.
	PropagationP99 time.Duration
	// Duplicates and Missed count (member, file) pairs delivered more
	// or fewer than exactly once.
	Duplicates int
	Missed     int
}

// E18FanOutTrial runs one fan-out trial: N subscribers on one feed,
// staged files enqueued through the live path, measuring staging reads,
// propagation, and per-member delivery counts.
func E18FanOutTrial(cfg E18TrialConfig) (*E18TrialResult, error) {
	st, err := newStagedStore("e18")
	if err != nil {
		return nil, err
	}
	defer st.close()

	names := make([]string, cfg.Subscribers)
	subs := make([]*config.Subscriber, cfg.Subscribers)
	for i := range subs {
		names[i] = fmt.Sprintf("s%06d", i)
		subs[i] = &config.Subscriber{
			Name:  names[i],
			Dest:  "in",
			Feeds: []string{"TICKS"},
			Retry: 20 * time.Millisecond,
		}
	}
	plane := oracle.Push
	if cfg.Channel {
		plane = oracle.Channel
	}
	trans := &recorder{ledger: oracle.New(), plane: plane, delay: cfg.TransferLatency}
	dm := delivery.NewMetrics(metrics.NewRegistry())
	opts := delivery.Options{
		Store:       st.store,
		Transport:   trans,
		Subscribers: subs,
		Open:        st.opener(dm.StagingReadBytes),
		Metrics:     dm,
	}
	if cfg.Channel {
		opts.Channels = []delivery.ChannelSpec{{Name: "fan", Feed: "TICKS", Members: names}}
	}
	if cfg.Ungrouped {
		opts.Scheduler = delivery.DefaultSchedulerConfig()
		opts.Scheduler.GroupSameFile = false
	}
	eng, err := delivery.New(opts)
	if err != nil {
		return nil, err
	}
	eng.Start()
	defer eng.Stop()
	// Every member must ride the fan-out before the clock starts; a
	// straggler would be caught up per-member (extra reads).
	attached := func() int {
		if st := eng.ChannelStats(); len(st) == 1 {
			return st[0].Attached
		}
		return 0
	}
	if cfg.Channel && !waitFor(120*time.Second, func() bool { return attached() == cfg.Subscribers }) {
		return nil, fmt.Errorf("e18: %d of %d members attached before timeout", attached(), cfg.Subscribers)
	}

	payload := bytes.Repeat([]byte("abcdefghijklmnopqrstuvwxyz"), cfg.FileSize/26+1)[:cfg.FileSize]
	staged := make(map[string]time.Time, cfg.Files)
	for i := 0; i < cfg.Files; i++ {
		name := fmt.Sprintf("t%04d.csv", i)
		meta, err := st.stage("TICKS/"+name, "TICKS", payload, time.Now())
		if err != nil {
			return nil, err
		}
		trans.ledger.Deposit(name, meta.Checksum, true)
		staged[name] = time.Now()
		eng.EnqueueFile(meta)
	}

	// Missed pairs are counted below, not fatal here.
	waitFor(120*time.Second, func() bool { return trans.ledger.Deliveries(plane) >= cfg.Subscribers*cfg.Files })
	// Settle so late duplicates (retries racing the count) surface.
	time.Sleep(50 * time.Millisecond)
	eng.Stop()

	trans.mu.Lock()
	defer trans.mu.Unlock()
	_, p99 := percentiles(latencies(trans.arrivals, staged))
	return &E18TrialResult{
		StagingBytes:   opts.Metrics.StagingReadBytes.Value(),
		WireBytes:      trans.bytes,
		PropagationP99: p99,
		Duplicates:     trans.ledger.Duplicates(plane),
		Missed:         trans.ledger.Undelivered(plane, names...),
	}, nil
}
