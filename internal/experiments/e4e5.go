package experiments

import (
	"fmt"
	"time"

	"bistro/internal/scheduler"
	"bistro/internal/sim"
)

var e4start = time.Date(2011, 6, 12, 0, 0, 0, 0, time.UTC)

// e4mixed produces a mixed workload: a bulk measurement file every
// second (256KB, 2-minute deadline) and, every fifth second, a small
// network-alert file (4KB, 10-second deadline) — the real-time traffic
// (fault feeds, visualization) whose tardiness the paper cares about.
func e4mixed(n int) []sim.Arrival {
	var out []sim.Arrival
	id := uint64(1)
	for i := 0; i < n; i++ {
		at := e4start.Add(time.Duration(i) * time.Second)
		out = append(out, sim.Arrival{
			FileID: id, Feed: "bulk", Size: 256 << 10, At: at, Deadline: 2 * time.Minute,
		})
		id++
		if i%5 == 0 {
			out = append(out, sim.Arrival{
				FileID: id, Feed: "alert", Size: 4 << 10, At: at, Deadline: 10 * time.Second,
			})
			id++
		}
	}
	return out
}

// E4Scheduler reproduces the §4.3 argument in two parts.
//
// Part 1 (policy rows): with heterogeneous subscribers in ONE global
// queue, slow destinations occupy the workers and delay-sensitive
// traffic suffers regardless of policy; EDF at least orders the queue
// by urgency (alert files jump ahead), but only partitioning — the
// fast subscriber in its own partition with a dedicated worker —
// restores near-zero tardiness for the interactive class.
//
// Part 2 (ablation rows): the same-file locality grouping heuristic
// ("delivery of a file to several subscribers within a group is
// performed concurrently whenever possible") collapses ten queued
// copies of a staged file into one worker claim.
func E4Scheduler(o Options) (Table, error) {
	n := 600
	if o.Quick {
		n = 200
	}
	arrivals := e4mixed(n)

	fast := sim.Subscriber{Name: "fast", Partition: 0, Bandwidth: 10 << 20}
	slows := func(part int) []sim.Subscriber {
		var out []sim.Subscriber
		for i := 1; i <= 3; i++ {
			out = append(out, sim.Subscriber{
				Name: fmt.Sprintf("slow%d", i), Partition: part, Bandwidth: 100 << 10,
			})
		}
		return out
	}

	t := Table{
		ID:     "E4",
		Title:  "scheduler comparison under heterogeneous subscribers",
		Claim:  "slow/overloaded subscribers must not starve responsive ones; partition subscribers by responsiveness, EDF within a partition (§4.3)",
		Header: []string{"scheduler", "fast_max_tardy", "alert_mean_tardy", "alert_max_tardy", "bulk_mean_tardy"},
	}

	type caseDef struct {
		name string
		cfg  scheduler.Config
		subs []sim.Subscriber
	}
	// One global queue of two workers under policy p.
	global := func(name string, p scheduler.PolicyKind) caseDef {
		return caseDef{name, scheduler.Config{Partitions: []scheduler.PartitionConfig{
			{Name: "all", Workers: 2, Policy: p}}}, append([]sim.Subscriber{fast}, slows(0)...)}
	}
	cases := []caseDef{
		global("global-fifo/2w", scheduler.FIFO),
		global("global-edf/2w", scheduler.EDF),
		global("global-maxbenefit/2w", scheduler.MaxBenefit),
		{
			name: "partitioned-edf/1w+1w",
			cfg: scheduler.Config{Partitions: []scheduler.PartitionConfig{
				{Name: "interactive", Workers: 1, Policy: scheduler.EDF},
				{Name: "bulk", Workers: 1, Policy: scheduler.EDF}}},
			subs: append([]sim.Subscriber{fast}, slows(1)...),
		},
		{
			// Future-work extension: everyone starts in the interactive
			// partition; observed service times demote the slow class
			// automatically (§4.3 "dynamic migration of subscriber from
			// one group to another based on observed runtime behavior").
			name: "auto-migrating/1w+1w",
			cfg: scheduler.Config{
				Partitions: []scheduler.PartitionConfig{
					{Name: "interactive", Workers: 1, Policy: scheduler.EDF, MaxMeanService: 500 * time.Millisecond},
					{Name: "bulk", Workers: 1, Policy: scheduler.EDF},
				},
				Migration: scheduler.MigrationConfig{Enabled: true, MinObservations: 5},
			},
			subs: append([]sim.Subscriber{fast}, slows(0)...), // all start fast
		},
	}
	for _, c := range cases {
		res, err := sim.Run(sim.Config{
			Scheduler:   c.cfg,
			Subscribers: c.subs,
			Deadline:    time.Minute,
			Start:       e4start,
		}, arrivals)
		if err != nil {
			return t, err
		}
		f := res.PerSub["fast"]
		alert := res.PerFeed["alert"]
		bulk := res.PerFeed["bulk"]
		t.Rows = append(t.Rows, []string{
			c.name,
			secs(f.MaxTardy),
			secs(alert.MeanTardiness()), secs(alert.MaxTardy),
			secs(bulk.MeanTardiness()),
		})
	}

	// Locality-grouping ablation: ten same-partition subscribers, a
	// heavy stream whose ungrouped copies saturate two workers.
	var groupSubs []sim.Subscriber
	var names []string
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("g%d", i)
		groupSubs = append(groupSubs, sim.Subscriber{Name: name, Bandwidth: 1 << 20})
		names = append(names, name)
	}
	var heavy []sim.Arrival
	for i := 0; i < n/2; i++ {
		heavy = append(heavy, sim.Arrival{
			FileID: uint64(i + 1), Feed: "F", Size: 512 << 10,
			At: e4start.Add(time.Duration(i) * time.Second),
		})
	}
	for _, grouping := range []bool{false, true} {
		res, err := sim.Run(sim.Config{
			Scheduler: scheduler.Config{
				Partitions:    []scheduler.PartitionConfig{{Name: "p", Workers: 2, Policy: scheduler.EDF}},
				GroupSameFile: grouping,
			},
			Subscribers: groupSubs,
			Deadline:    30 * time.Second,
			Start:       e4start,
		}, heavy)
		if err != nil {
			return t, err
		}
		agg := res.Aggregate(names...)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("ablation group-same-file=%v", grouping),
			"-",
			secs(agg.MeanTardiness()), secs(agg.MaxTardy),
			"-",
		})
	}
	t.Notes = append(t.Notes,
		"global FIFO serves the queue in arrival order: alert files wait behind bulk backlogs to slow subscribers",
		"global EDF pulls alerts forward but still shares workers with the saturating slow class",
		"partitioned-EDF gives the interactive subscriber its own worker: its tardiness collapses (the paper's design)",
		"auto-migrating starts everyone interactive; observed service times demote the slow class within a few transfers (§4.3 future-work extension)",
		"the ablation shows one claimed staged read serving all ten subscribers when grouping is on")
	return t, nil
}

// E5Backfill reproduces the §4.3 backfill argument: after an outage,
// delivering the backlog in arrival order (old EDF deadlines first)
// sacrifices real-time delivery; Bistro's concurrent strategy streams
// backlog on a reserved worker while new files stay real-time.
func E5Backfill(o Options) (Table, error) {
	totalMin := 120
	if o.Quick {
		totalMin = 40
	}
	outageMin := totalMin / 4

	t := Table{
		ID:     "E5",
		Title:  "backfill strategies after subscriber outage",
		Claim:  "deliver new data in real time concurrently with backfilling missed history, rather than in order (§4.3)",
		Header: []string{"strategy", "delivered", "backfilled", "rt_mean_tardy", "rt_max_tardy", "drain_time"},
	}

	// One file every 10s; the subscriber is down for the first quarter.
	var arrivals []sim.Arrival
	for i := 0; ; i++ {
		at := e4start.Add(time.Duration(i) * 10 * time.Second)
		if at.After(e4start.Add(time.Duration(totalMin) * time.Minute)) {
			break
		}
		arrivals = append(arrivals, sim.Arrival{FileID: uint64(i + 1), Feed: "F", Size: 200 << 10, At: at})
	}

	for _, mode := range []scheduler.BackfillMode{scheduler.BackfillInOrder, scheduler.BackfillConcurrent} {
		pc := scheduler.PartitionConfig{Name: "p", Workers: 2, Policy: scheduler.EDF}
		if mode == scheduler.BackfillConcurrent {
			pc.BackfillWorkers = 1
		}
		res, err := sim.Run(sim.Config{
			Scheduler: scheduler.Config{Partitions: []scheduler.PartitionConfig{pc}, Backfill: mode},
			Subscribers: []sim.Subscriber{{
				Name: "wh", Bandwidth: 60 << 10,
				OfflineFrom: e4start, OfflineUntil: e4start.Add(time.Duration(outageMin) * time.Minute),
			}},
			Deadline: time.Minute,
			Start:    e4start,
		}, arrivals)
		if err != nil {
			return t, err
		}
		st := res.PerSub["wh"]
		t.Rows = append(t.Rows, []string{
			mode.String(),
			fmt.Sprintf("%d", st.Delivered),
			fmt.Sprintf("%d", st.Backfilled),
			secs(st.MeanTardiness()),
			secs(st.MaxTardy),
			secs(res.Makespan.Sub(e4start)),
		})
	}
	t.Notes = append(t.Notes,
		"in-order: the reconnecting subscriber drains its 30-minute backlog before any fresh file — fresh traffic inherits the backlog's delay",
		"concurrent: the reserved backfill worker streams history while fresh files keep their real-time deadlines (Bistro's strategy)")
	return t, nil
}
