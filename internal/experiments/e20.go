package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"bistro/internal/diskfault"
	"bistro/internal/server"
)

// E20EnrichmentPlacement measures the plan engine's enrichment
// placement trade under E14's fsync-latency model: the same side-table
// join run once per file at ingest (fat staged files, no per-push
// work) versus once per push at delivery (lean staged files, the join
// cost multiplied by the feed's fan-out). Both placements deliver
// byte-identical enriched content to every subscriber; what moves is
// where the bytes and CPU land — staging disk versus the delivery hot
// path.
func E20EnrichmentPlacement(o Options) (Table, error) {
	t := Table{
		ID:     "E20",
		Title:  "plan enrichment placement: at-ingest vs at-delivery",
		Claim:  "per-feed processing belongs in the transport, not in per-subscriber scripts (§2.3, §5); where a join runs decides whether staging pays in bytes or delivery pays in repeated work",
		Header: []string{"placement", "ingest time", "staged bytes", "delivered bytes", "enrich joins", "propagation p95"},
	}
	cfg := E20TrialConfig{
		Sources:      4,
		PerSource:    20,
		Subscribers:  3,
		FsyncLatency: 2 * time.Millisecond,
	}
	if o.Quick {
		cfg.PerSource = 10
	}
	for _, atDelivery := range []bool{false, true} {
		c := cfg
		c.AtDelivery = atDelivery
		r, err := E20Trial(c)
		if err != nil {
			return t, err
		}
		place := "at-ingest"
		if atDelivery {
			place = "at-delivery"
		}
		t.Rows = append(t.Rows, []string{
			place,
			secs(r.IngestTime),
			fmt.Sprintf("%d B", r.StagedBytes),
			fmt.Sprintf("%d B", r.DeliveredBytes),
			fmt.Sprintf("%d", r.EnrichJoins),
			ms(r.PropagationP95),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d sources deposit %d files each concurrently; every fsync costs %s; %d push subscribers fan out the feed", cfg.Sources, cfg.PerSource, cfg.FsyncLatency, cfg.Subscribers),
		"at-ingest joins once per file inside the plan worker and stages the enriched (fat) records",
		"at-delivery stages the lean records and re-runs the join on every push, so join count scales with fan-out while staged bytes shrink",
		"delivered bytes are identical either way — subscribers cannot tell the placements apart, only the transport's cost profile changes")
	return t, nil
}

// E20TrialConfig parameterizes one enrichment-placement trial.
type E20TrialConfig struct {
	// AtDelivery moves the enrich join from the ingest plan worker to
	// the per-push delivery transform.
	AtDelivery   bool
	Sources      int
	PerSource    int
	Subscribers  int
	FsyncLatency time.Duration
}

// E20TrialResult carries one trial's measurements.
type E20TrialResult struct {
	// IngestTime is the wall time for all sources to deposit all
	// files (Deposit blocks until the receipt batch is durable).
	IngestTime time.Duration
	// StagedBytes totals the feed's staging tree after the run.
	StagedBytes int64
	// DeliveredBytes totals every subscriber's received tree.
	DeliveredBytes int64
	// EnrichJoins sums bistro_plan_records_total over op="enrich" and
	// op="delivery_enrich": records that passed through the join,
	// wherever it ran.
	EnrichJoins int64
	// PropagationP95 is the 95th-percentile deposit→delivered latency
	// across all (file, subscriber) pairs.
	PropagationP95 time.Duration
}

// e20Payload is one deposited file: six CSV records whose first
// column joins against the hosts side table.
const e20Payload = "h1,37,a\nh2,11,b\nh3,5,c\nh1,2,d\nh2,9,e\nh3,4,f\n"

// E20Trial runs one full-server trial of a planned feed with a
// side-table enrich, placed per cfg, under concurrent depositors and
// a fixed-fsync-latency filesystem.
func E20Trial(cfg E20TrialConfig) (*E20TrialResult, error) {
	root, err := tempRoot("e20", "tables")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	table := "h1,rack1,us\nh2,rack2,eu\nh3,rack3,ap\n"
	if err := os.WriteFile(filepath.Join(root, "tables", "hosts.csv"), []byte(table), 0o644); err != nil {
		return nil, err
	}

	placement := ""
	if cfg.AtDelivery {
		placement = "\n            at delivery"
	}
	text := fmt.Sprintf(`ingest {
    workers 4
    group_commit { max_batch 64 max_delay 2ms }
}
feed EV {
    pattern "src%%i/EV_%%Y%%m%%d%%H%%M%%S.csv"
    plan {
        parse csv
        extract host 1
        enrich {
            table "tables/hosts.csv"
            key host%s
        }
    }
}
`, placement)
	for i := 1; i <= cfg.Subscribers; i++ {
		text += fmt.Sprintf("subscriber s%d { dest \"in%d\" subscribe EV }\n", i, i)
	}
	clock := newPropagationClock()
	srv, err := startServer(text, server.Options{
		Root: root, ScanInterval: -1,
		FS:      diskfault.Latency(diskfault.OS(), cfg.FsyncLatency),
		OnEvent: clock.onEvent,
	})
	if err != nil {
		return nil, err
	}
	defer srv.Stop()

	base := time.Date(2010, 9, 25, 0, 0, 0, 0, time.UTC)
	ingestTime, err := clock.depositSources(srv, cfg.Sources, cfg.PerSource, func(s, i int) string {
		ts := base.Add(time.Duration(s*cfg.PerSource+i) * time.Second)
		return fmt.Sprintf("src%d/EV_%s.csv", s+1, ts.Format("20060102150405"))
	}, []byte(e20Payload))
	if err != nil {
		return nil, fmt.Errorf("e20: %w", err)
	}
	// Drain: every file must reach every subscriber.
	props, err := clock.drained(srv.Store(), cfg.Sources*cfg.PerSource*cfg.Subscribers, 60*time.Second)
	if err != nil {
		return nil, fmt.Errorf("e20: %w", err)
	}

	var deliveredBytes int64
	for i := 1; i <= cfg.Subscribers; i++ {
		deliveredBytes += dirBytes(filepath.Join(root, fmt.Sprintf("in%d", i)))
	}
	// Ingest-placed joins count under op="enrich"; the per-push
	// delivery transform counts under op="delivery_enrich" so fan-out
	// cannot inflate the ingest series. E20 wants joins wherever they
	// ran, so it sums both.
	records := srv.Metrics().CounterVec("bistro_plan_records_total",
		"Records emitted by each plan operator.", "feed", "op")
	joins := records.With("EV", "enrich").Value() +
		records.With("EV", "delivery_enrich").Value()
	return &E20TrialResult{
		IngestTime:     ingestTime,
		StagedBytes:    dirBytes(filepath.Join(root, "staging", "EV")),
		DeliveredBytes: deliveredBytes,
		EnrichJoins:    joins,
		PropagationP95: props[len(props)*95/100],
	}, nil
}
