package experiments

import (
	"fmt"
	"sync"
	"time"

	"bistro/internal/backoff"
	"bistro/internal/clock"
	"bistro/internal/config"
	"bistro/internal/delivery"
	"bistro/internal/netsim"
	"bistro/internal/trigger"
)

// E11Degradation exercises the fault-tolerance layer end to end and
// measures graceful degradation (§4.2's reliability argument under
// injected faults).
//
// Part 1 (scenario rows): three subscribers share the default
// partition layout; one follows a scripted flap schedule (two outage
// windows covering 40% of the run). The claim is isolation: the
// flapping peer's failures — retries, circuit openings, probes — must
// not bleed into the healthy subscribers' tardiness, because backoff
// delays park failing jobs off the worker pool instead of hot-looping
// through it.
//
// Part 2 (probe rows): one subscriber is down for the whole window;
// a fixed 15s probe interval is compared against the breaker's
// exponential open-window schedule (15s doubling to a 2m cap). The
// exponential schedule reaches the dead host with a fraction of the
// probe traffic.
func E11Degradation(o Options) (Table, error) {
	t := Table{
		ID:     "E11",
		Title:  "graceful degradation under fault injection",
		Claim:  "transfer failures are retried with backoff and flapping subscribers are isolated behind a circuit breaker, so healthy subscribers keep their delivery deadlines (§4.2)",
		Header: []string{"scenario", "delivered", "healthy_mean_tardy", "healthy_max_tardy", "retries", "probes"},
	}

	window := 10 * time.Minute
	if o.Quick {
		window = 4 * time.Minute
	}

	for _, flap := range []bool{false, true} {
		row, err := e11Scenario(window, flap)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, row)
	}

	for _, fixed := range []bool{true, false} {
		probes, err := e11Probes(window, fixed)
		if err != nil {
			return t, err
		}
		name := "probe-exp=15s..2m"
		if fixed {
			name = "probe-fixed=15s"
		}
		t.Rows = append(t.Rows, []string{name, "-", "-", "-", "-", fmt.Sprintf("%d", probes)})
	}

	t.Notes = append(t.Notes,
		"flap-fault: one subscriber is down for two scripted windows (40% of the run); its jobs back off, trip the breaker, and return via backfill after a half-open probe succeeds",
		"healthy tardiness is unchanged by the flapping peer: delayed retries never occupy a worker, so the shared partition stays drained",
		"probe rows: one subscriber dead for the whole window; the exponential open-window schedule sends strictly fewer probes than a fixed 15s interval while still detecting recovery within the cap")
	return t, nil
}

// e11Scenario runs three subscribers (one optionally flapping) over
// window on a simulated clock, a file every 5s, and returns the
// scenario's table row of delivery and fault-path counters.
func e11Scenario(window time.Duration, flap bool) ([]string, error) {
	var delivered, retries int
	start := time.Date(2011, 6, 12, 0, 0, 0, 0, time.UTC)
	period := 5 * time.Second
	deadline := time.Minute
	clk := clock.NewSimulated(start)
	ns := netsim.New(clk)
	var subs []*config.Subscriber
	for _, name := range []string{"wh1", "wh2", "flappy"} {
		ns.Register(name, netsim.HostConfig{})
		subs = append(subs, &config.Subscriber{Name: name, Dest: "in", Feeds: []string{"F"}})
	}
	if flap {
		ns.SetFaults("flappy", netsim.FaultPlan{Windows: []netsim.FlapWindow{
			{From: start.Add(window / 10), Until: start.Add(3 * window / 10)},
			{From: start.Add(window / 2), Until: start.Add(7 * window / 10)},
		}})
	}

	st, err := newStagedStore("e11")
	if err != nil {
		return nil, err
	}
	defer st.close()

	var mu sync.Mutex
	arrivalOf := make(map[uint64]time.Time)
	var healthyTardy []time.Duration
	eng, err := delivery.New(delivery.Options{
		Clock:       clk,
		Store:       st.store,
		Transport:   ns,
		Subscribers: subs,
		Open:        st.opener(nil),
		Deadline:    deadline,
		// NoJitter keeps the run deterministic for the shape assertions.
		Backoff: backoff.Policy{Base: time.Second, Max: 30 * time.Second, Multiplier: 2, NoJitter: true, Threshold: 3},
		OnEvent: func(ev delivery.Event) {
			mu.Lock()
			defer mu.Unlock()
			switch ev.Kind {
			case delivery.EvRetryScheduled:
				retries++
			case delivery.EvDelivered:
				delivered++
				if ev.Subscriber != "flappy" {
					tardy := ev.At.Sub(arrivalOf[ev.FileID].Add(deadline))
					if tardy < 0 {
						tardy = 0
					}
					healthyTardy = append(healthyTardy, tardy)
				}
			}
		},
		TriggerInvoker: trigger.InvokerFunc(func(trigger.Invocation) error { return nil }),
	})
	if err != nil {
		return nil, err
	}
	eng.Start()
	defer eng.Stop()

	n := 0
	for at := start; at.Before(start.Add(window)); at = at.Add(period) {
		clk.AdvanceTo(at)
		meta, err := st.stage(fmt.Sprintf("F/file%04d.csv", n), "F", []byte(fmt.Sprintf("measurement %s\n", at.Format(time.RFC3339))), at)
		if err != nil {
			return nil, err
		}
		n++
		mu.Lock()
		arrivalOf[meta.ID] = at
		mu.Unlock()
		eng.EnqueueFile(meta)
		// Step through the period so retry releases and probe timers
		// fire between arrivals.
		for s := 0; s < 5; s++ {
			clk.Advance(period / 5)
			time.Sleep(time.Millisecond)
		}
	}
	// Drain: keep the clock moving until the flapping subscriber's
	// post-recovery backfill lands everything, bounded in real time.
	want := 3 * n
	drainUntil := time.Now().Add(20 * time.Second)
	for time.Now().Before(drainUntil) {
		mu.Lock()
		done := delivered >= want
		mu.Unlock()
		if done {
			break
		}
		clk.Advance(time.Second)
		time.Sleep(time.Millisecond)
	}

	mu.Lock()
	defer mu.Unlock()
	name := "no-fault"
	if flap {
		name = "flap-fault"
	}
	return []string{
		name,
		fmt.Sprintf("%d", delivered),
		secs(meanDuration(healthyTardy)),
		secs(maxDuration(healthyTardy)),
		fmt.Sprintf("%d", retries),
		fmt.Sprintf("%d", ns.Pings("flappy")),
	}, nil
}

// e11Probes runs one permanently-down subscriber over window and
// counts liveness probes under a fixed 15s interval (fixed=true) or
// the exponential 15s..2m open-window schedule.
func e11Probes(window time.Duration, fixed bool) (int, error) {
	start := time.Date(2011, 6, 12, 0, 0, 0, 0, time.UTC)
	clk := clock.NewSimulated(start)
	ns := netsim.New(clk)
	ns.Register("down", netsim.HostConfig{})
	ns.SetDown("down", true)

	st, err := newStagedStore("e11p")
	if err != nil {
		return 0, err
	}
	defer st.close()

	pol := backoff.Policy{Base: 15 * time.Second, Max: 2 * time.Minute, Multiplier: 2, NoJitter: true, Threshold: 1}
	if fixed {
		pol.Max = 15 * time.Second
		pol.Multiplier = 1
	}
	eng, err := delivery.New(delivery.Options{
		Clock:          clk,
		Store:          st.store,
		Transport:      ns,
		Subscribers:    []*config.Subscriber{{Name: "down", Dest: "in", Feeds: []string{"F"}}},
		Open:           st.opener(nil),
		Backoff:        pol,
		TriggerInvoker: trigger.InvokerFunc(func(trigger.Invocation) error { return nil }),
	})
	if err != nil {
		return 0, err
	}
	eng.Start()
	defer eng.Stop()

	meta, err := st.stage("f.csv", "F", []byte("x"), start)
	if err != nil {
		return 0, err
	}
	eng.EnqueueFile(meta)

	steps := int(window / time.Second)
	for i := 0; i < steps; i++ {
		clk.Advance(time.Second)
		if i%5 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	time.Sleep(5 * time.Millisecond)
	return ns.Pings("down"), nil
}
