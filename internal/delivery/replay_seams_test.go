package delivery

import (
	"bytes"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"bistro/internal/config"
	"bistro/internal/metrics"
	"bistro/internal/receipts"
	"bistro/internal/scheduler"
	"bistro/internal/transport"
)

// TestArchiveOpenFallback: a job whose staged copy is gone (expired
// mid-queue) is served from long-term storage by the opener, instead of
// being dropped.
func TestArchiveOpenFallback(t *testing.T) {
	dest := t.TempDir()
	lt := transport.NewLocalDir()
	lt.Register("wh", dest)
	content := []byte("archived,payload\n")
	h := newHarness(t, lt, []*config.Subscriber{sub("wh", "BPS")}, nil)
	h.engine.Start()
	defer h.engine.Stop()

	meta := h.stage("BPS/old.csv", []string{"BPS"}, content)
	// Simulate expiry: staged copy moved to the archive after the
	// receipt exists.
	h.archived("BPS/old.csv", content)
	os.Remove(filepath.Join(h.staging, "BPS", "old.csv"))
	h.engine.EnqueueFile(meta)
	waitFor(t, "delivery from archive", func() bool { return h.store.Delivered(meta.ID, "wh") })
	got, err := os.ReadFile(filepath.Join(dest, "in", "BPS", "old.csv"))
	if err != nil || string(got) != string(content) {
		t.Fatalf("content = %q err=%v", got, err)
	}
}

// TestArchivedLargeFileStreams: a file at or above the stream
// threshold whose staged copy is gone (expired mid-queue, or replayed
// from the archive) streams from the archive like a staged one. It
// reaches the transport with no bytes in memory, and the subscriber
// gets the archived copy, counted as read.
func TestArchivedLargeFileStreams(t *testing.T) {
	dest := t.TempDir()
	lt := transport.NewLocalDir()
	lt.Register("wh", dest)
	var inMemory atomic.Int32
	capture := transportFunc(func(sub string, f transport.File) error {
		if f.Data != nil {
			inMemory.Add(1)
		}
		return lt.Deliver(sub, f)
	})
	reg := metrics.NewRegistry()
	h := newHarness(t, capture, []*config.Subscriber{sub("wh", "BPS")}, func(o *Options) {
		o.Metrics = NewMetrics(reg)
	})
	h.engine.Start()
	defer h.engine.Stop()

	content := bytes.Repeat([]byte("archived\n"), streamThreshold/9+1)
	meta := h.stage("BPS/big.bin", []string{"BPS"}, content)
	h.archived("BPS/big.bin", content)
	os.Remove(filepath.Join(h.staging, "BPS", "big.bin"))
	h.engine.EnqueueFile(meta)
	waitFor(t, "delivery from archive", func() bool { return h.store.Delivered(meta.ID, "wh") })
	if n := inMemory.Load(); n != 0 {
		t.Fatalf("%d transfers of a %d-byte archived file carried it in memory, want it streamed", n, len(content))
	}
	if got, err := os.ReadFile(filepath.Join(dest, "in", "BPS", "big.bin")); err != nil || !bytes.Equal(got, content) {
		t.Fatalf("delivered %d bytes (%v), want the archived %d", len(got), err, len(content))
	}
	if got := h.engine.opts.Metrics.StagingReadBytes.Value(); got != int64(len(content)) {
		t.Fatalf("stored bytes read = %d, want the file's %d", got, len(content))
	}
	if n := h.events.count(EvDeliveryFailed); n != 0 {
		t.Fatalf("delivery failures = %d, want none", n)
	}
}

// TestHistoryMetaFallback: a replay job whose receipt was compacted
// away still delivers, with metadata vouched for by HistoryMeta, and
// records a fresh delivery receipt.
func TestHistoryMetaFallback(t *testing.T) {
	dest := t.TempDir()
	lt := transport.NewLocalDir()
	lt.Register("wh", dest)
	content := []byte("compacted,history\n")
	hist := receipts.FileMeta{
		ID: 999999, Name: "h.csv", StagedPath: "BPS/h.csv",
		Feeds: []string{"BPS"}, Size: int64(len(content)),
		Checksum: crc32.ChecksumIEEE(content),
		Arrived:  time.Now().Add(-72 * time.Hour),
	}
	h := newHarness(t, lt, []*config.Subscriber{sub("wh", "BPS")}, func(o *Options) {
		o.HistoryMeta = func(id uint64) (receipts.FileMeta, bool) {
			if id == hist.ID {
				return hist, true
			}
			return receipts.FileMeta{}, false
		}
	})
	h.archived(hist.StagedPath, content)
	h.engine.Start()
	defer h.engine.Stop()

	// Submit directly, as a replay session would: the id has no receipt.
	h.engine.SubmitReplay(&scheduler.Job{
		FileID: hist.ID, Feed: "BPS", Subscriber: "wh", Path: hist.StagedPath,
		Size: hist.Size, Release: time.Now(), Deadline: time.Now().Add(time.Minute),
		Backfill: true,
	})
	waitFor(t, "compacted-history delivery", func() bool { return h.store.Delivered(hist.ID, "wh") })
	if h.events.count(EvDeliveryFailed) != 0 {
		t.Fatal("history job failed")
	}
}

// TestReplayPartitionRouting: with a replay partition configured, bulk
// subscribers must not be routed onto it.
func TestReplayPartitionRouting(t *testing.T) {
	lt := transport.NewLocalDir()
	lt.Register("bulky", t.TempDir())
	cfg := DefaultSchedulerConfig()
	cfg.Partitions = append(cfg.Partitions, scheduler.PartitionConfig{
		Name: "replay", Workers: 1, Policy: scheduler.FIFO,
	})
	h := newHarness(t, lt, []*config.Subscriber{sub("bulky", "BPS")}, func(o *Options) {
		o.Scheduler = cfg
		o.ReplayPartition = len(cfg.Partitions) - 1
	})
	if got := h.engine.partitionFor(h.engine.subscriber("bulky")); got != 1 {
		t.Fatalf("bulk subscriber routed to partition %d, want 1 (bulk)", got)
	}
	interactive := sub("i", "BPS")
	interactive.Class = "interactive"
	if got := h.engine.partitionFor(interactive); got != 0 {
		t.Fatalf("interactive routed to %d", got)
	}
}

// TestQueueBackfillReturnsIDs: the returned id list is exactly the
// pending set — the replay skip contract.
func TestQueueBackfillReturnsIDs(t *testing.T) {
	lt := transport.NewLocalDir()
	lt.Register("wh", t.TempDir())
	h := newHarness(t, lt, nil, nil)
	m1 := h.stage("BPS/a.csv", []string{"BPS"}, []byte("a"))
	m2 := h.stage("BPS/b.csv", []string{"BPS"}, []byte("b"))
	if err := h.engine.AddSubscriberDeferred(sub("wh", "BPS")); err != nil {
		t.Fatal(err)
	}
	ids := h.engine.QueueBackfill("wh")
	if len(ids) != 2 || ids[0] != m1.ID || ids[1] != m2.ID {
		t.Fatalf("ids = %v, want [%d %d]", ids, m1.ID, m2.ID)
	}
	h.engine.Start()
	defer h.engine.Stop()
	waitFor(t, "backfill drains", func() bool {
		return h.store.Delivered(m1.ID, "wh") && h.store.Delivered(m2.ID, "wh")
	})
}
