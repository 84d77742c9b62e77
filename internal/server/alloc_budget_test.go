package server

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"bistro/internal/sourceclient"
	"bistro/internal/subclient"
)

// TestPerFileAllocBudget pins the heap objects one warm 4 KiB file
// costs the whole process end to end: a source uploads it over
// loopback, the server lands, classifies, stages and commits it (real
// fsyncs, opportunistic group commit), pushes it to a subscriber daemon and
// commits the delivery receipt. The figure counts the source and the
// subscriber too, since they run in this process.
//
// Measured with go1.24.0 (the toolchain go.mod names, so CI builds
// with it too) on a 2-core x86-64 Linux host: 107.1–107.2 objects per
// file before the per-file bookkeeping stopped allocating (activity
// lines formatted for a discarded log, a fresh ack channel per commit
// and per ingest, a fresh encode buffer and batch queue per WAL
// commit), 75.1–76.0 after (24 runs, including GOMAXPROCS=1 and three
// CPU-bound processes competing, one outlier at 81.0 under that load),
// 56.1–56.9 once the real filesystem's path calls stopped making C
// strings and spare file objects (22 runs, including GOMAXPROCS=1 and
// two CPU-bound processes competing; 56.1–56.4 in 10 more), and
// 42.1–43.1 once Upload, Deliver and their Acks travelled as tagged
// binary frames instead of gob (22 runs, including GOMAXPROCS=1 and two
// CPU-bound processes competing), and 29.1–29.3 once the real
// filesystem's opens returned a one-object handle, the delivery hop
// stopped allocating beside its job and the sent Upload and Deliver
// stopped being boxed (20 runs: 10 plain, 5 at GOMAXPROCS=1, 5 beside
// two CPU-bound processes). The budget is 29.3 + 10 %.
func TestPerFileAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations distort the counts")
	}
	const warm, files = 50, 200
	const budget = 29.3 * 1.10

	var received atomic.Int64
	daemon, err := subclient.Start("127.0.0.1:0", subclient.Options{
		Name:    "wh",
		DestDir: t.TempDir(),
		OnFile:  func(string) { received.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer daemon.Stop()
	cfgSrc := fmt.Sprintf(`
ingest { workers 2 }
feed CPU { pattern "CPU_POLL%%i_%%Y%%m%%d%%H%%M.txt" }
subscriber wh { host "%s" dest "in" subscribe CPU }
`, daemon.Addr())
	s := newServer(t, cfgSrc, func(o *Options) {
		o.Listen = "127.0.0.1:0"
		// Group commit only runs when syncs are real. With no
		// group_commit block it is opportunistic: no flush window, so
		// no timer whose count would follow how commits batch.
		o.NoSync = false
		o.ExpiryInterval = -1
		o.MonitorInterval = -1
	})
	src, err := sourceclient.Dial(s.Addr(), "poller", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	data := bytes.Repeat([]byte("bistro!\n"), 4<<10/8)
	push := func(from, n int) {
		for i := from; i < from+n; i++ {
			if err := src.Upload(fmt.Sprintf("CPU_POLL%d_201009250451.txt", i), data); err != nil {
				t.Fatal(err)
			}
		}
		// A file's bookkeeping ends with its delivery receipt.
		want := from + n
		waitFor(t, "delivery receipts", func() bool {
			return received.Load() == int64(want) && s.Store().DeliveredCount("wh") == want
		})
	}
	push(0, warm)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	push(warm, files)
	runtime.ReadMemStats(&after)
	per := float64(after.Mallocs-before.Mallocs) / files
	t.Logf("%.1f objects, %.0f B per 4 KiB file", per, float64(after.TotalAlloc-before.TotalAlloc)/files)
	if per > budget {
		t.Errorf("%.1f objects per file, budget %.1f", per, budget)
	}
}
