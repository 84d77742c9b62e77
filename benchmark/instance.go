//go:build linux

package benchmark

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"bistro/internal/config"
	"bistro/internal/delivery"
	"bistro/internal/diskfault"
	"bistro/internal/server"
	"bistro/internal/sourceclient"
	"bistro/internal/subclient"
)

// instance is one booted system under test: the in-process server on
// a real-filesystem root, its loopback source connections and its one
// consumer. A run boots several (set-up is measured as a median) and
// keeps the last for the load phases.
type instance struct {
	root  string
	cfg   *config.Config
	srv   *server.Server
	sub   *subclient.Daemon // push consumer (nil on the pull workload)
	poll  *poller           // pull consumer (nil on push workloads)
	conns []*sourceclient.Client
	cfs   *CountingFS // traced runs only
	prep  prepared

	startDur     time.Duration // server.New + Start
	reconcileDur time.Duration // an explicit Reconcile pass (traced runs)
}

// boot builds one instance under root. led receives the consumer's
// observations; traced installs the FS wrapper and the delivery-event
// tap, which the untraced run leaves out entirely.
func boot(w Workload, root string, led *ledger, traced bool) (*instance, error) {
	in := &instance{root: root}
	ok := false
	defer func() {
		if !ok {
			in.stop()
		}
	}()
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	prep, err := w.Prepare(root)
	if err != nil {
		return nil, fmt.Errorf("prepare %s: %w", w.Name, err)
	}
	in.prep = prep

	subAddr := ""
	if !w.HTTP {
		dest := filepath.Join(root, "consumer")
		in.sub, err = subclient.Start("127.0.0.1:0", subclient.Options{
			Name:      subscriberName,
			DestDir:   dest,
			DedupByID: true,
			OnFile:    func(rel string) { pushArrived(led, dest, rel) },
		})
		if err != nil {
			return nil, err
		}
		subAddr = in.sub.Addr()
	}
	in.cfg, err = config.Parse(w.ConfigText(subAddr))
	if err != nil {
		return nil, fmt.Errorf("config %s: %w", w.Name, err)
	}
	opts := server.Options{
		Config:          in.cfg,
		Root:            root,
		Listen:          "127.0.0.1:0",
		ScanInterval:    -1,
		ExpiryInterval:  -1,
		MonitorInterval: -1,
	}
	if traced {
		in.cfs = NewCountingFS(diskfault.OS(), root)
		opts.FS = in.cfs
		opts.OnEvent = func(ev delivery.Event) {
			if ev.Kind != delivery.EvDelivered {
				return
			}
			if name, _, ok := landingName(ev.Name); ok {
				led.receipt(name, time.Now())
			}
		}
	}
	start := time.Now()
	in.srv, err = server.New(opts)
	if err != nil {
		return nil, err
	}
	if err := in.srv.Start(); err != nil {
		return nil, err
	}
	in.startDur = time.Since(start)
	if traced {
		// Start already reconciled; a second pass over the same tree
		// times that step alone.
		start = time.Now()
		if _, err := in.srv.Reconcile(); err != nil {
			return nil, fmt.Errorf("reconcile: %w", err)
		}
		in.reconcileDur = time.Since(start)
	}
	for c := 0; c < w.Sources; c++ {
		cl, err := sourceclient.Dial(in.srv.Addr(), fmt.Sprintf("src%d", c), 30*time.Second)
		if err != nil {
			return nil, err
		}
		in.conns = append(in.conns, cl)
	}
	if w.HTTP {
		in.poll = newPoller(in.srv.HTTPAddr(), w.Feed, prep.head+1, led)
		in.poll.start()
	}
	ok = true
	return in, nil
}

// stop tears the instance down and waits for everything it started.
func (in *instance) stop() {
	for _, c := range in.conns {
		c.Close()
	}
	if in.poll != nil {
		in.poll.stop()
	}
	if in.srv != nil {
		in.srv.Stop()
	}
	if in.sub != nil {
		in.sub.Stop()
	}
}

// pushArrived is the push consumer's OnFile hook: the pushed file is
// complete on the consumer's disk. It is read back, checked against
// the generator's expectation and consumed (removed).
func pushArrived(led *ledger, dest, rel string) {
	arrived := time.Now()
	path := filepath.Join(dest, filepath.FromSlash(rel))
	data, err := os.ReadFile(path)
	os.Remove(path)
	name, feed, ok := landingName(rel)
	if err != nil || !ok {
		led.stray()
		return
	}
	led.delivered(name, feed, data, arrived)
}

// poller is the pull consumer: one keep-alive HTTP client that
// tail-follows GET /feeds/<feed>?from=<cursor>&limit=<pollPage> and
// fetches /files/<seq> for every new entry. While pages keep coming
// back with entries it polls again at once; after an empty page it
// waits pollIdle.
type poller struct {
	base   string
	feed   string
	cursor uint64
	led    *ledger
	client *http.Client

	stopCh chan struct{}
	done   chan struct{}
	// tapped gates the per-request clocks (traced window only).
	tapped atomic.Bool

	mu          sync.Mutex
	requests    int
	failed      int
	polls       int
	notModified int
	pollBytes   int64
	pageMs      []float64 // tail-page round trips while tapped
	contentMs   float64   // content GET time while tapped
	contentMB   float64
	seqs        []uint64 // every seq seen, in the order seen
}

const (
	// pollPage bounds a tail page. With the sources ahead of the
	// consumer (the saturated phase) every page is full, so the consumer
	// makes exactly one poll per pollPage files and the allocation
	// figures do not depend on how the two sides' timing fell.
	pollPage = 16
	// pollIdle is the wait after an empty page. A consumer that spins
	// on an idle feed keeps a core busy rebuilding the feed log, and the
	// paced phase would time the deposits' fight for the other core.
	pollIdle = 20 * time.Millisecond
)

func newPoller(addr, feed string, from uint64, led *ledger) *poller {
	return &poller{
		base:   "http://" + addr + "/feeds/" + feed,
		feed:   feed,
		cursor: from,
		led:    led,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}, Timeout: 30 * time.Second},
		stopCh: make(chan struct{}),
		done:   make(chan struct{}),
	}
}

func (p *poller) start() { go p.loop() }

func (p *poller) stop() {
	select {
	case <-p.stopCh:
	default:
		close(p.stopCh)
	}
	<-p.done
	p.client.CloseIdleConnections()
}

func (p *poller) fail() {
	p.mu.Lock()
	p.failed++
	p.mu.Unlock()
}

func (p *poller) loop() {
	defer close(p.done)
	var etag string
	for {
		select {
		case <-p.stopCh:
			return
		default:
		}
		req, err := http.NewRequest("GET", fmt.Sprintf("%s?from=%d&limit=%d", p.base, p.cursor, pollPage), nil)
		if err != nil {
			p.fail()
			return
		}
		if etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
		start := time.Now()
		resp, err := p.client.Do(req)
		p.mu.Lock()
		p.requests++
		p.polls++
		p.mu.Unlock()
		if err != nil {
			p.fail()
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		took := time.Since(start)
		p.mu.Lock()
		p.pollBytes += int64(len(body))
		if p.tapped.Load() {
			p.pageMs = append(p.pageMs, msOf(took))
		}
		p.mu.Unlock()
		if resp.StatusCode == http.StatusNotModified {
			p.mu.Lock()
			p.notModified++
			p.mu.Unlock()
			p.idle()
			continue
		}
		var page struct {
			Next    uint64 `json:"next"`
			Entries []struct {
				Seq  uint64 `json:"seq"`
				Name string `json:"name"`
			} `json:"entries"`
		}
		if err != nil || resp.StatusCode != http.StatusOK || json.Unmarshal(body, &page) != nil {
			p.fail()
			continue
		}
		// The ETag covers (cursor, head): it only matches again while
		// the same cursor still sees the same empty tail.
		etag = resp.Header.Get("ETag")
		for _, e := range page.Entries {
			p.fetch(e.Seq, e.Name)
		}
		if page.Next != p.cursor {
			p.cursor = page.Next
			etag = ""
		}
		if len(page.Entries) == 0 {
			p.idle()
		}
	}
}

// idle waits pollIdle, or until the poller is stopped.
func (p *poller) idle() {
	select {
	case <-p.stopCh:
	case <-time.After(pollIdle):
	}
}

// fetch retrieves one entry's content and hands it to the ledger.
func (p *poller) fetch(seq uint64, name string) {
	start := time.Now()
	resp, err := p.client.Get(fmt.Sprintf("%s/files/%d", p.base, seq))
	p.mu.Lock()
	p.requests++
	p.seqs = append(p.seqs, seq)
	p.mu.Unlock()
	if err != nil {
		p.fail()
		return
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	arrived := time.Now()
	if err != nil || resp.StatusCode != http.StatusOK {
		p.fail()
		return
	}
	if p.tapped.Load() {
		p.mu.Lock()
		p.contentMs += msOf(arrived.Sub(start))
		p.contentMB += float64(len(data)) / 1e6
		p.mu.Unlock()
	}
	p.led.delivered(name, p.feed, data, arrived)
}
