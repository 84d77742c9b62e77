// Package netsim provides a simulated subscriber transport with
// configurable per-subscriber bandwidth, latency, and failure
// injection. The paper's scheduling and reliability arguments (§4.2,
// §4.3) are about heterogeneous, unreliable subscribers; netsim lets
// tests and experiments reproduce fast/slow/flapping subscribers
// deterministically on one machine, without real remote hosts.
package netsim

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"bistro/internal/clock"
	"bistro/internal/transport"
)

// HostConfig shapes one simulated subscriber.
type HostConfig struct {
	// Bandwidth in bytes/second governs transfer service time
	// (0 = infinite).
	Bandwidth int64
	// Latency is added to every operation.
	Latency time.Duration
	// TimeScale divides all computed durations, letting experiments
	// compress hours of simulated traffic into milliseconds of wall
	// time. 0 means 1 (no compression).
	TimeScale int64
}

// FlapWindow is one scripted outage: the host is unreachable from From
// (inclusive) until Until (exclusive), measured on the transport's
// clock. A schedule of windows models a flapping subscriber
// deterministically.
type FlapWindow struct {
	From  time.Time
	Until time.Time
}

// FaultPlan injects failures into one host's operations. Probabilities
// are per attempt and drawn from the transport's seeded RNG, so a run
// is reproducible given the same seed and operation order.
type FaultPlan struct {
	// FailProb is the probability a transfer fails outright
	// (connection refused: no service time consumed).
	FailProb float64
	// CutProb is the probability a transfer is cut mid-stream: half
	// the service time elapses, then the transfer errors.
	CutProb float64
	// SpikeProb is the probability an attempt suffers a latency spike
	// of Spike (added before bandwidth scaling's TimeScale division).
	SpikeProb float64
	// Spike is the injected extra latency.
	Spike time.Duration
	// Windows is the scripted flap schedule; the host is down inside
	// any window, regardless of SetDown.
	Windows []FlapWindow
}

// Transport is a simulated transport. It implements
// transport.Transport.
type Transport struct {
	clk clock.Clock

	mu    sync.Mutex
	rng   *rand.Rand
	hosts map[string]*host
}

type host struct {
	cfg       HostConfig
	down      bool
	plan      FaultPlan
	delivered []transport.File
	notified  []transport.File
	triggered []string
	pings     int
	busy      time.Duration // cumulative service time (for stats)
}

// New creates a simulated transport using clk for service-time sleeps.
// Fault draws use a fixed default seed; call Seed to vary it.
func New(clk clock.Clock) *Transport {
	return &Transport{clk: clk, rng: rand.New(rand.NewSource(1)), hosts: make(map[string]*host)}
}

// Seed resets the fault-injection RNG.
func (t *Transport) Seed(seed int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rng = rand.New(rand.NewSource(seed))
}

// Register adds a simulated subscriber host.
func (t *Transport) Register(sub string, cfg HostConfig) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.hosts[sub] = &host{cfg: cfg}
}

// SetDown flips a subscriber's availability (failure injection).
func (t *Transport) SetDown(sub string, down bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if h, ok := t.hosts[sub]; ok {
		h.down = down
	}
}

// SetFaults installs a host's fault plan (replacing any previous one).
func (t *Transport) SetFaults(sub string, plan FaultPlan) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if h, ok := t.hosts[sub]; ok {
		h.plan = plan
	}
}

// downAt reports whether the host is unreachable at time now, either
// by explicit SetDown or inside a scripted flap window.
func (h *host) downAt(now time.Time) bool {
	if h.down {
		return true
	}
	for _, w := range h.plan.Windows {
		if !now.Before(w.From) && now.Before(w.Until) {
			return true
		}
	}
	return false
}

func (t *Transport) host(sub string) (*host, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	h, ok := t.hosts[sub]
	if !ok {
		return nil, fmt.Errorf("netsim: unknown subscriber %q", sub)
	}
	return h, nil
}

// serviceTime computes how long an operation on this host takes.
func serviceTime(cfg HostConfig, bytes int64) time.Duration {
	d := cfg.Latency
	if cfg.Bandwidth > 0 {
		d += time.Duration(bytes * int64(time.Second) / cfg.Bandwidth)
	}
	if cfg.TimeScale > 1 {
		d /= time.Duration(cfg.TimeScale)
	}
	return d
}

// Deliver simulates a transfer: sleeps the service time, fails when
// the host is down (or a fault plan injects a failure or cut).
func (t *Transport) Deliver(sub string, f transport.File) error {
	h, err := t.host(sub)
	if err != nil {
		return err
	}
	bytes := int64(len(f.Data))
	if f.Data == nil {
		// A streamed file is opened, as a real transfer would, but not
		// read: a stored copy that is gone fails the transfer.
		rc, err := f.Open()
		if err != nil {
			return err
		}
		rc.Close()
		bytes = f.Size
	}
	d := serviceTime(h.cfg, bytes)
	// Draw this attempt's faults up front, under the lock, so a seeded
	// run is reproducible regardless of sleep interleaving.
	t.mu.Lock()
	p := h.plan
	var fail, cut bool
	if p.SpikeProb > 0 && t.rng.Float64() < p.SpikeProb {
		spike := p.Spike
		if h.cfg.TimeScale > 1 {
			spike /= time.Duration(h.cfg.TimeScale)
		}
		d += spike
	}
	if p.FailProb > 0 && t.rng.Float64() < p.FailProb {
		fail = true
	}
	if !fail && p.CutProb > 0 && t.rng.Float64() < p.CutProb {
		cut = true
	}
	t.mu.Unlock()
	if fail {
		return fmt.Errorf("netsim: injected transfer failure to %q", sub)
	}
	if cut {
		if d/2 > 0 {
			t.clk.Sleep(d / 2)
		}
		t.mu.Lock()
		h.busy += d / 2
		t.mu.Unlock()
		return fmt.Errorf("netsim: transfer to %q cut mid-stream", sub)
	}
	if d > 0 {
		t.clk.Sleep(d)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if h.downAt(t.clk.Now()) {
		return fmt.Errorf("netsim: subscriber %q is down", sub)
	}
	h.busy += d
	f.Data = nil // keep memory bounded; content is not inspected
	h.delivered = append(h.delivered, f)
	return nil
}

// Notify simulates a lightweight notification (latency only).
func (t *Transport) Notify(sub string, f transport.File) error {
	h, err := t.host(sub)
	if err != nil {
		return err
	}
	d := serviceTime(h.cfg, 0)
	if d > 0 {
		t.clk.Sleep(d)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if h.downAt(t.clk.Now()) {
		return fmt.Errorf("netsim: subscriber %q is down", sub)
	}
	f.Data = nil
	h.notified = append(h.notified, f)
	return nil
}

// Trigger simulates running a remote command.
func (t *Transport) Trigger(sub string, command string, paths []string) error {
	h, err := t.host(sub)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if h.downAt(t.clk.Now()) {
		return fmt.Errorf("netsim: subscriber %q is down", sub)
	}
	h.triggered = append(h.triggered, command)
	return nil
}

// Ping probes liveness without a transfer. Every attempt is counted
// (Pings), so experiments can compare probe traffic across policies.
func (t *Transport) Ping(sub string) error {
	h, err := t.host(sub)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	h.pings++
	if h.downAt(t.clk.Now()) {
		return fmt.Errorf("netsim: subscriber %q is down", sub)
	}
	return nil
}

// Pings reports how many liveness probes sub has received (successful
// or not).
func (t *Transport) Pings(sub string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if h, ok := t.hosts[sub]; ok {
		return h.pings
	}
	return 0
}

// Delivered returns a copy of the files delivered to sub so far.
func (t *Transport) Delivered(sub string) []transport.File {
	t.mu.Lock()
	defer t.mu.Unlock()
	h, ok := t.hosts[sub]
	if !ok {
		return nil
	}
	out := make([]transport.File, len(h.delivered))
	copy(out, h.delivered)
	return out
}

// Notified returns a copy of notifications sent to sub.
func (t *Transport) Notified(sub string) []transport.File {
	t.mu.Lock()
	defer t.mu.Unlock()
	h, ok := t.hosts[sub]
	if !ok {
		return nil
	}
	out := make([]transport.File, len(h.notified))
	copy(out, h.notified)
	return out
}

// Triggered returns the remote commands run on sub.
func (t *Transport) Triggered(sub string) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	h, ok := t.hosts[sub]
	if !ok {
		return nil
	}
	out := make([]string, len(h.triggered))
	copy(out, h.triggered)
	return out
}

// BusyTime reports cumulative simulated service time for sub.
func (t *Transport) BusyTime(sub string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if h, ok := t.hosts[sub]; ok {
		return h.busy
	}
	return 0
}

var _ transport.Transport = (*Transport)(nil)
