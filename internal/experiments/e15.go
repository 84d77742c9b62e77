package experiments

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"bistro/internal/oracle"
	"bistro/internal/server"
	"bistro/internal/subclient"
)

// E15HistoricalReplay measures the archive manifest + replay subsystem:
// a subscriber joins with SUBSCRIBE ... FROM several days in the past,
// and the archived history — whose receipts have already been
// compacted away, leaving the manifest as the only record — is
// streamed through the dedicated replay partition while live traffic
// keeps flowing. The claims under test: catch-up throughput is
// sustained and rate-capped, live propagation stays inside the paper's
// one-minute bound while the backlog drains (§4.3's isolation
// argument), delivery across the archive/staging boundary is
// exactly-once, and receipt-store size stays bounded under continuous
// expiry because compaction folds settled history into the manifest.
func E15HistoricalReplay(o Options) (Table, error) {
	t := Table{
		ID:     "E15",
		Title:  "historical replay from the archive concurrent with live delivery",
		Claim:  "subscribers can ask for history older than the staging window (§4.2) and catch up from tertiary storage without disturbing live propagation (§4.3); the manifest makes enumeration O(requested range) and compaction keeps the receipt DB bounded",
		Header: []string{"history", "rate cap", "catch-up", "throughput", "live p99", "dups", "receipts after"},
	}
	days, perDay, live := 3, 48, 20
	if o.Quick {
		perDay = 24
	}
	for _, rate := range []int{100, 400, 0} {
		r, err := E15ReplayTrial(E15TrialConfig{
			HistDays: days, PerDay: perDay, LiveFiles: live, Rate: rate,
		})
		if err != nil {
			return t, err
		}
		cap := "none"
		if rate > 0 {
			cap = fmt.Sprintf("%d/s", rate)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dd x %d", days, perDay),
			cap,
			secs(r.CatchupTime),
			fmt.Sprintf("%.0f files/s", r.CatchupRate),
			ms(r.LiveP99),
			fmt.Sprintf("%d", r.Duplicates),
			fmt.Sprintf("%d files, %d bytes", r.ReceiptsAfter, r.ReceiptBytesAfter),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d days x %d files/day deposited with old data times, expired into the archive, and their receipts compacted before the subscriber exists — replay runs entirely off the manifest", days, perDay),
		fmt.Sprintf("%d live files flow concurrently with catch-up; live p99 is deposit-to-daemon-write latency over real TCP", live),
		"dups counts files the subscriber daemon received more than once (must be 0: exactly-once across the archive/staging handoff)",
		"receipts after = receipt DB content once history is folded: live files only, history lives in the manifest")
	return t, nil
}

// E15TrialConfig parameterizes one replay trial.
type E15TrialConfig struct {
	// HistDays x PerDay archived files are replayed.
	HistDays int
	PerDay   int
	// LiveFiles are deposited concurrently with catch-up.
	LiveFiles int
	// Rate caps replay streaming (files/second; 0 = unlimited).
	Rate int
}

// E15TrialResult carries one trial's measurements.
type E15TrialResult struct {
	// Total is the archived-history size (HistDays * PerDay).
	Total int
	// Replayed counts files streamed from the archive; Skipped counts
	// enumerated files the live path owned.
	Replayed, Skipped int
	// CatchupTime is subscribe-to-handoff wall time; CatchupRate is
	// Replayed/CatchupTime.
	CatchupTime time.Duration
	CatchupRate float64
	// LiveP99 is the 99th-percentile deposit→daemon-write latency for
	// live files delivered while catch-up ran.
	LiveP99 time.Duration
	// Duplicates counts files the daemon received more than once.
	Duplicates int
	// ReceiptsBefore/After are receipt-DB file counts before compaction
	// and at trial end; ReceiptBytesBefore/After are WAL+checkpoint
	// bytes on disk at the same points.
	ReceiptsBefore, ReceiptsAfter         int
	ReceiptBytesBefore, ReceiptBytesAfter int64
}

// E15ReplayTrial runs one full trial: archive a multi-day history,
// compact its receipts, then subscribe FROM the past over real TCP
// while live traffic flows.
func E15ReplayTrial(cfg E15TrialConfig) (*E15TrialResult, error) {
	root, err := tempRoot("e15")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	srv, err := startServer(fmt.Sprintf(`
window 1h
archive "arch"

replay {
    rate %d
}

feed CPU { pattern "CPU_POLL%%i_%%Y%%m%%d%%H%%M%%S.txt" }
`, cfg.Rate), server.Options{
		Root:         root,
		ScanInterval: -1, ExpiryInterval: -1, // expiry driven explicitly
		Listen: "127.0.0.1:0",
		NoSync: true,
	})
	if err != nil {
		return nil, err
	}
	defer srv.Stop()

	// Phase 1: the archived past. Data times span HistDays days ending
	// well outside the 1h staging window; no subscriber exists yet.
	res := &E15TrialResult{Total: cfg.HistDays * cfg.PerDay}
	ledger := oracle.New()
	histStart := time.Now().UTC().Add(-time.Duration(cfg.HistDays+1) * 24 * time.Hour)
	step := 24 * time.Hour / time.Duration(cfg.PerDay)
	for d := 0; d < cfg.HistDays; d++ {
		for i := 0; i < cfg.PerDay; i++ {
			ts := histStart.Add(time.Duration(d)*24*time.Hour + time.Duration(i)*step)
			name := fmt.Sprintf("CPU_POLL1_%s.txt", ts.Format("20060102150405"))
			if err := srv.Deposit(name, []byte("hist:"+name)); err != nil {
				return nil, fmt.Errorf("e15: deposit %s: %w", name, err)
			}
			ledger.Deposit(name, crcOf("hist:"+name), true)
		}
	}
	if n, err := srv.Archiver().ExpireOnce(); err != nil {
		return nil, err
	} else if n != res.Total {
		return nil, fmt.Errorf("e15: expired %d of %d", n, res.Total)
	}
	res.ReceiptsBefore = srv.Store().Stats().Files
	res.ReceiptBytesBefore = dirBytes(filepath.Join(root, "receipts"))
	if n, err := srv.CompactReceipts(); err != nil {
		return nil, err
	} else if n != res.Total {
		return nil, fmt.Errorf("e15: compacted %d of %d", n, res.Total)
	}

	// Phase 2: subscriber daemon over real TCP; every file it writes
	// goes to the ledger with its content and receive time.
	liveSent := make(map[string]time.Time) // live name -> deposit time; read once liveDone is received
	rec := &recorder{ledger: ledger, plane: oracle.Replay, firstOnly: true}
	dest := filepath.Join(root, "wh-in")
	daemon, err := subclient.Start("127.0.0.1:0", subclient.Options{
		Name: "wh", DestDir: dest,
		OnFile: func(rel string) {
			got, _ := os.ReadFile(filepath.Join(dest, rel))
			rec.observe("wh", rel, crc32.ChecksumIEEE(got), int64(len(got)))
		},
	})
	if err != nil {
		return nil, err
	}
	defer daemon.Stop()

	// Live depositor: files with current data times, concurrent with
	// catch-up. A distinct poller id keeps names disjoint from history.
	liveDone := make(chan error, 1)
	go func() {
		for i := 0; i < cfg.LiveFiles; i++ {
			ts := time.Now().UTC().Add(time.Duration(i) * time.Second)
			name := fmt.Sprintf("CPU_POLL2_%s.txt", ts.Format("20060102150405"))
			liveSent[name] = time.Now()
			if err := srv.Deposit(name, []byte("live:"+name)); err != nil {
				liveDone <- fmt.Errorf("e15: live deposit %s: %w", name, err)
				return
			}
			ledger.Deposit(name, crcOf("live:"+name), true)
			time.Sleep(2 * time.Millisecond)
		}
		liveDone <- nil
	}()

	// SUBSCRIBE CPU FROM before the history started.
	begin := time.Now()
	err = subclient.Subscribe(srv.Addr(), subclient.SubscribeSpec{
		Name: "wh", Host: daemon.Addr(), Dest: "in",
		Feeds: []string{"CPU"},
		From:  histStart.Add(-time.Hour),
	}, 10*time.Second)
	if err != nil {
		return nil, err
	}

	// Wait for handoff, then for every file to land at the daemon.
	deadline := time.Now().Add(120 * time.Second)
	if !waitFor(time.Until(deadline), func() bool {
		ss := srv.Replay().Sessions()
		if len(ss) != 1 || !ss[0].Done {
			return false
		}
		res.CatchupTime = time.Since(begin)
		res.Replayed, res.Skipped = ss[0].Streamed, ss[0].Skipped
		return true
	}) {
		return nil, fmt.Errorf("e15: replay session did not complete")
	}
	if err := <-liveDone; err != nil {
		return nil, err
	}
	want := res.Total + cfg.LiveFiles
	if !waitFor(time.Until(deadline), func() bool { return ledger.Delivered(oracle.Replay, "wh") >= want }) {
		return nil, fmt.Errorf("e15: %d of %d files at the daemon before timeout", ledger.Delivered(oracle.Replay, "wh"), want)
	}
	if res.CatchupTime > 0 {
		res.CatchupRate = float64(res.Replayed) / res.CatchupTime.Seconds()
	}

	// Exactly-once: every history and live file once, no gaps.
	if n := ledger.Undelivered(oracle.Replay, "wh") + ledger.Strays(oracle.Replay); n != 0 {
		return nil, fmt.Errorf("e15: gap: %d files never delivered whole, or delivered unasked", n)
	}
	res.Duplicates = ledger.Duplicates(oracle.Replay)
	rec.mu.Lock()
	_, res.LiveP99 = percentiles(latencies(rec.arrivals, liveSent))
	rec.mu.Unlock()

	// Bounded receipts: fold once more and checkpoint so the on-disk
	// footprint reflects live state + delivery history, not the
	// replayed archive.
	if _, err := srv.CompactReceipts(); err != nil {
		return nil, err
	}
	if err := srv.Store().Checkpoint(); err != nil {
		return nil, err
	}
	res.ReceiptsAfter = srv.Store().Stats().Files
	res.ReceiptBytesAfter = dirBytes(filepath.Join(root, "receipts"))
	return res, nil
}
