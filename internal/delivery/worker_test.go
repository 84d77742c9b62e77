package delivery

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"bistro/internal/backoff"
	"bistro/internal/config"
	"bistro/internal/diskfault"
	"bistro/internal/metrics"
	"bistro/internal/receipts"
	"bistro/internal/scheduler"
	"bistro/internal/transport"
)

// oneWorker runs every job on a single worker, so consecutive files
// share that worker's read buffer.
func oneWorker(o *Options) {
	o.Scheduler = scheduler.Config{
		Partitions: []scheduler.PartitionConfig{{Name: "p", Workers: 1, Policy: scheduler.EDF}},
	}
}

// payloadSeen records the first byte's address of every in-memory
// delivery.
type payloadSeen struct {
	mu    sync.Mutex
	addrs []*byte
}

func (p *payloadSeen) Deliver(sub string, f transport.File) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(f.Data) > 0 {
		p.addrs = append(p.addrs, &f.Data[0])
	}
	return nil
}

func (p *payloadSeen) Notify(sub string, f transport.File) error     { return nil }
func (p *payloadSeen) Trigger(sub, cmd string, paths []string) error { return nil }
func (p *payloadSeen) Ping(sub string) error                         { return nil }

// A worker reads its second same-sized inline file into the buffer it
// read the first into: the read allocates no payload buffer.
func TestWarmWorkerReadAllocatesNoPayloadBuffer(t *testing.T) {
	seen := &payloadSeen{}
	h := newHarness(t, seen, []*config.Subscriber{sub("wh", "BPS")}, oneWorker)
	h.engine.Start()
	defer h.engine.Stop()
	const size = 1 << 20
	a := h.stage("BPS/a.bin", []string{"BPS"}, bytes.Repeat([]byte{'a'}, size))
	b := h.stage("BPS/b.bin", []string{"BPS"}, bytes.Repeat([]byte{'b'}, size))
	h.engine.EnqueueFile(a)
	waitFor(t, "a.bin", func() bool { return h.store.Delivered(a.ID, "wh") })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.engine.EnqueueFile(b)
	waitFor(t, "b.bin", func() bool { return h.store.Delivered(b.ID, "wh") })
	runtime.ReadMemStats(&after)
	seen.mu.Lock()
	defer seen.mu.Unlock()
	if len(seen.addrs) != 2 || seen.addrs[0] != seen.addrs[1] {
		t.Fatalf("the second 1 MiB file was not read into the first one's buffer (%d deliveries)", len(seen.addrs))
	}
	if got := after.TotalAlloc - before.TotalAlloc; !raceEnabled && got > size/4 {
		t.Fatalf("the second 1 MiB delivery allocated %d bytes, want no payload buffer (< %d)", got, size/4)
	}
}

// stuckTransport parks the first delivery until released and hands
// back what its Data held at that point.
type stuckTransport struct {
	transport.Transport
	entered chan struct{}
	release chan struct{}
	seen    chan []byte
	once    sync.Once
}

func (s *stuckTransport) Deliver(sub string, f transport.File) error {
	first := false
	s.once.Do(func() { first = true })
	if !first {
		return s.Transport.Deliver(sub, f)
	}
	close(s.entered)
	<-s.release
	s.seen <- bytes.Clone(f.Data)
	return nil
}

// A transfer abandoned at its deadline keeps reading the bytes it was
// handed; the worker must not read the next file into them.
func TestAbandonedTransferKeepsItsBytes(t *testing.T) {
	lt := transport.NewLocalDir()
	lt.Register("wh", t.TempDir())
	stuck := &stuckTransport{Transport: lt, entered: make(chan struct{}), release: make(chan struct{}), seen: make(chan []byte, 1)}
	h := newHarness(t, stuck, []*config.Subscriber{sub("wh", "BPS")}, func(o *Options) {
		oneWorker(o)
		o.Backoff = backoff.Policy{TransferDeadline: 50 * time.Millisecond}
		o.OfflineAfter = 5
	})
	h.engine.Start()
	defer h.engine.Stop()
	first := bytes.Repeat([]byte("first!\n"), 10000)
	a := h.stage("BPS/a.csv", []string{"BPS"}, first)
	h.engine.EnqueueFile(a)
	<-stuck.entered
	b := h.stage("BPS/b.csv", []string{"BPS"}, bytes.Repeat([]byte("other?\n"), 10000))
	h.engine.EnqueueFile(b)
	waitFor(t, "the next file delivered past the stuck one", func() bool { return h.store.Delivered(b.ID, "wh") })
	close(stuck.release)
	if got := <-stuck.seen; !bytes.Equal(got, first) {
		t.Fatalf("the abandoned transfer's bytes changed under it (%.20q...)", got)
	}
	waitFor(t, "the stuck file's retry", func() bool { return h.store.Delivered(a.ID, "wh") })
}

// readFault fails every read of the staged files named with fault in
// them after the first MiB, as a bad sector would.
type readFault struct{ diskfault.FS }

type faultyRead struct {
	diskfault.File
	left int
}

var errSector = errors.New("injected read error")

func (r readFault) Open(name string) (diskfault.File, error) {
	f, err := r.FS.Open(name)
	if err != nil || !strings.Contains(name, "fault") {
		return f, err
	}
	return &faultyRead{File: f, left: 1 << 20}, nil
}

func (f *faultyRead) Read(p []byte) (int, error) {
	if f.left <= 0 {
		return 0, errSector
	}
	n, err := f.File.Read(p[:min(len(p), f.left)])
	f.left -= n
	return n, err
}

// A file at or above the stream threshold is streamed by the transport
// through the engine's FS seam: an injected read error fails the job
// and counts the failure, and a clean stream counts its bytes as read.
func TestStreamedDeliveryReadsThroughFSSeam(t *testing.T) {
	const size = 5 << 20
	for _, name := range []string{"clean", "fault"} {
		t.Run(name, func(t *testing.T) {
			dest := t.TempDir()
			lt := transport.NewLocalDir()
			lt.Register("wh", dest)
			reg := metrics.NewRegistry()
			h := newHarnessStore(t, receipts.Options{NoSync: true}, readFault{diskfault.OS()}, lt, []*config.Subscriber{sub("wh", "BPS")}, func(o *Options) {
				o.Metrics = NewMetrics(reg)
			})
			h.engine.Start()
			defer h.engine.Stop()
			content := bytes.Repeat([]byte("0123456789abcdef"), size/16)
			meta := h.stage(fmt.Sprintf("BPS/%s.bin", name), []string{"BPS"}, content)
			h.engine.EnqueueFile(meta)
			m := h.engine.opts.Metrics
			if name == "fault" {
				waitFor(t, "the failed stream", func() bool { return h.events.count(EvDeliveryFailed) > 0 })
				if h.store.Delivered(meta.ID, "wh") {
					t.Fatal("a stream that failed its staged read was receipted")
				}
				if n := m.Failures.With("wh").Value(); n < 1 {
					t.Fatalf("failures counted = %d, want >= 1", n)
				}
				if _, err := os.Stat(filepath.Join(dest, "in", "BPS", "fault.bin")); !errors.Is(err, os.ErrNotExist) {
					t.Fatalf("a failed stream left a delivered file: %v", err)
				}
				return
			}
			waitFor(t, "the clean stream", func() bool { return h.store.Delivered(meta.ID, "wh") })
			if got := m.StagingReadBytes.Value(); got != size {
				t.Fatalf("staging bytes read = %d, want the file's %d", got, size)
			}
			got, err := os.ReadFile(filepath.Join(dest, "in", "BPS", "clean.bin"))
			if err != nil || !bytes.Equal(got, content) {
				t.Fatalf("delivered %d bytes (%v), want the staged %d", len(got), err, size)
			}
		})
	}
}
