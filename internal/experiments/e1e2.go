package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"bistro/internal/baseline"
	"bistro/internal/clock"
	"bistro/internal/receipts"
)

// populate writes n small files into a dated directory layout under
// root, mimicking a feed provider's retained history.
func populate(root string, n int, prefix string) error {
	for i := 0; i < n; i++ {
		dir := filepath.Join(root, fmt.Sprintf("2010/%02d/%02d", i%12+1, i%28+1))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		name := filepath.Join(dir, fmt.Sprintf("%s%07d.csv", prefix, i))
		if err := os.WriteFile(name, []byte("r,1\n"), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// E1PullScan measures the §2.2.1 claim: a pull subscriber must rescan
// the provider's whole retained history every poll — a cost that grows
// linearly with history size even when nothing new arrived — while a
// notified landing zone pays a constant per-file cost.
func E1PullScan(o Options) (Table, error) {
	histories := []int{1000, 5000, 20000}
	if o.Quick {
		histories = []int{500, 2000}
	}
	const newFiles = 10
	t := Table{
		ID:     "E1",
		Title:  "pull-polling scan cost vs landing-zone notification",
		Claim:  "cost of filesystem metadata operations grows linearly with stored history; polling must continue even when no data is new (§2.2.1)",
		Header: []string{"history", "poll_entries", "poll_time", "poll_time/new_file", "notify_time_total", "speedup"},
	}
	for _, h := range histories {
		root, err := tempRoot("e1", "land", "staged")
		if err != nil {
			return t, err
		}
		defer os.RemoveAll(root)
		hist, land, staged := filepath.Join(root, "hist"), filepath.Join(root, "land"), filepath.Join(root, "staged")
		if err := populate(hist, h, "hist"); err != nil {
			return t, err
		}
		sub := baseline.NewPullSubscriber(hist)
		if _, _, err := sub.Poll(); err != nil { // absorb history
			return t, err
		}
		// Drop newFiles fresh files, then measure the discovery poll.
		if err := populate(filepath.Join(hist, "new"), newFiles, "fresh"); err != nil {
			return t, err
		}
		fresh, stats, err := sub.Poll()
		if err != nil {
			return t, err
		}
		if len(fresh) != newFiles {
			return t, fmt.Errorf("e1: found %d fresh files, want %d", len(fresh), newFiles)
		}

		// Bistro path: the same ten files announced through a landing
		// zone; ingest is a constant-cost move per file (modelled here
		// as the announce + rename, no classification to isolate the
		// discovery cost both systems pay differently).
		var notifyTotal time.Duration
		for i := 0; i < newFiles; i++ {
			name := fmt.Sprintf("fresh%07d.csv", i)
			if err := os.WriteFile(filepath.Join(land, name), []byte("r,1\n"), 0o644); err != nil {
				return t, err
			}
			start := time.Now()
			// The notification names the file: no scan happens at all.
			if err := os.Rename(filepath.Join(land, name), filepath.Join(staged, name)); err != nil {
				return t, err
			}
			notifyTotal += time.Since(start)
		}
		speedup := float64(stats.Elapsed) / float64(max(notifyTotal, time.Microsecond))
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", h),
			fmt.Sprintf("%d", stats.Entries),
			ms(stats.Elapsed),
			ms(stats.Elapsed / newFiles),
			ms(notifyTotal),
			fmt.Sprintf("%.0fx", speedup),
		})
	}
	t.Notes = append(t.Notes,
		"poll_entries and poll_time grow with history while the per-notification cost is flat",
		"real deployments amplify the gap: many subscribers scan the same provider concurrently (§2.2.1)")
	return t, nil
}

// E2RsyncVsReceipts measures the §2.2.2 claim: rsync-style stateless
// sync rescans source and destination on every run, so as history
// grows the scan dominates the transfer; Bistro's receipt database
// computes the delivery queue from state, independent of on-disk
// history size.
func E2RsyncVsReceipts(o Options) (Table, error) {
	histories := []int{1000, 5000, 20000}
	if o.Quick {
		histories = []int{500, 2000}
	}
	const newFiles = 10
	t := Table{
		ID:     "E2",
		Title:  "rsync/cron stateless sync vs receipt database",
		Claim:  "as stored history grows, rsync's directory scan cost grows linearly and completely dominates data transmission (§2.2.2)",
		Header: []string{"history", "rsync_scanned", "rsync_time", "receipts_pending_time", "receipts_queue_len", "ratio"},
	}
	for _, h := range histories {
		root, err := tempRoot("e2", "dst")
		if err != nil {
			return t, err
		}
		defer os.RemoveAll(root)
		src, dst := filepath.Join(root, "src"), filepath.Join(root, "dst")
		if err := populate(src, h, "hist"); err != nil {
			return t, err
		}
		if _, err := baseline.Sync(src, dst); err != nil { // seed destination
			return t, err
		}
		if err := populate(filepath.Join(src, "new"), newFiles, "fresh"); err != nil {
			return t, err
		}
		stats, err := baseline.Sync(src, dst)
		if err != nil {
			return t, err
		}
		if stats.Transferred != newFiles {
			return t, fmt.Errorf("e2: rsync transferred %d, want %d", stats.Transferred, newFiles)
		}

		// Bistro: the receipt store with the same history (delivered)
		// plus ten new arrivals; the queue computation touches no
		// filesystem metadata at all.
		store, err := receipts.Open(filepath.Join(root, "db"), receipts.Options{NoSync: true})
		if err != nil {
			return t, err
		}
		defer store.Close()
		at := time.Date(2010, 9, 25, 0, 0, 0, 0, time.UTC)
		for i := 0; i < h+newFiles; i++ {
			name := fmt.Sprintf("hist%07d.csv", i)
			if i >= h {
				name = fmt.Sprintf("fresh%07d.csv", i-h)
			}
			id, err := store.RecordArrival(receipts.FileMeta{Name: name, StagedPath: "x", Feeds: []string{"F"}, Arrived: at})
			if err == nil && i < h {
				err = store.RecordDelivery(id, "sub", at)
			}
			if err != nil {
				return t, err
			}
		}
		start := time.Now()
		pending := store.PendingFor("sub", []string{"F"})
		pendTime := time.Since(start)
		if len(pending) != newFiles {
			return t, fmt.Errorf("e2: pending %d, want %d", len(pending), newFiles)
		}
		ratio := float64(stats.Elapsed) / float64(max(pendTime, time.Microsecond))
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", h),
			fmt.Sprintf("%d", stats.ScannedSrc+stats.ScannedDst),
			ms(stats.Elapsed),
			ms(pendTime),
			fmt.Sprintf("%d", len(pending)),
			fmt.Sprintf("%.0fx", ratio),
		})
	}
	// Drawback 4: cron steps on unfinished syncs. Drive a cron at a
	// period shorter than the sync over the largest history and count
	// skipped ticks (with the overlap guard, the honest configuration).
	ticks, skipped, err := cronOverlap(histories[len(histories)-1])
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{
		"cron overlap demo",
		"-", "-", "-", "-",
		fmt.Sprintf("%d/%d ticks skipped", skipped, ticks),
	})
	t.Notes = append(t.Notes,
		"rsync scans both trees every run even with nothing to do; the receipt queue computation is in-memory state",
		"rsync also mirrors the provider's full history into the destination (§2.2.2 drawback 3) — the destination tree above holds every historical file",
		"the cron row drives rsync at a period shorter than one sync pass: most ticks are skipped (or, without the guard, would step on the running sync) — §2.2.2 drawback 4")
	return t, nil
}

// cronOverlap runs a cron-driven sync over a history tree at a period
// shorter than one pass, returning (ticks fired, ticks skipped).
func cronOverlap(history int) (int, int, error) {
	root, err := tempRoot("e2cron", "dst")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(root)
	src, dst := filepath.Join(root, "src"), filepath.Join(root, "dst")
	if err := populate(src, history, "hist"); err != nil {
		return 0, 0, err
	}
	if _, err := baseline.Sync(src, dst); err != nil {
		return 0, 0, err
	}
	// Measure one steady-state pass, then set the cron period to a
	// fraction of it.
	stats, err := baseline.Sync(src, dst)
	if err != nil {
		return 0, 0, err
	}
	period := stats.Elapsed / 4
	if period < time.Millisecond {
		period = time.Millisecond
	}
	c := baseline.NewCron(clock.NewReal(), period)
	c.SkipOverlap = true
	c.Start(func() { baseline.Sync(src, dst) })
	time.Sleep(10 * period)
	c.Stop()
	ticks, skipped := c.Stats()
	return ticks, skipped, nil
}
