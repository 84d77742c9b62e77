//go:build linux

package benchmark

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"bistro/internal/archive"
	"bistro/internal/clock"
	"bistro/internal/diskfault"
	"bistro/internal/receipts"
)

// Workload is one traffic mix. Every constant here is frozen: rates
// are never adapted at run time, so two commits see the same load.
type Workload struct {
	// Name is the workload's name in BENCHMARK.json, which also records
	// why it exists: which layers it loads and which it leaves idle.
	Name string
	// Sources is the number of TCP source connections.
	Sources int
	// PacedRate is the open-loop deposit rate in files/s: about 40 %
	// of the seed commit's saturated median, rounded.
	PacedRate float64
	// Warmup is how many files the closed-loop warm-up pushes through
	// to the consumer before anything is measured.
	Warmup int
	// HTTP selects the pull consumer (keep-alive HTTP client) instead
	// of the push consumer (subclient daemon).
	HTTP bool
	// Outputs is how many delivered files one deposit produces.
	Outputs int
	// Feed is the feed the history-sized layer walk reads.
	Feed string
	// History and Expired size the preloaded receipt history (http_pull).
	History, Expired int
}

// creditWindow bounds each source connection's undelivered files in
// the closed-loop phases, so the saturated figure is the capacity of
// the whole pipeline and the backlog cannot grow without bound.
const creditWindow = 32

// ingestBlock is the fixed ingest configuration of every workload.
const ingestBlock = "ingest {\n    workers 2\n    group_commit { max_batch 64 max_delay 2ms }\n}\n"

// Workloads lists the benchmark's workloads: first BENCHMARK.json's,
// in its order, which the driver gates on; then the extras, which run
// by hand (`--workload`, run.sh, -compare) with nothing gating on them
// (README, "What the driver refused").
var Workloads = []Workload{
	{
		Name:      "small_push",
		Sources:   2,
		PacedRate: 115,
		Warmup:    200,
		Outputs:   1,
		Feed:      "NET/BPS_NE",
	},
	{
		Name:      "large_push",
		Sources:   2,
		PacedRate: 30,
		Warmup:    3 * largeBlock,
		Outputs:   1,
		Feed:      "BULK",
	},
	{
		Name:      "http_pull",
		Sources:   2,
		PacedRate: 20,
		Warmup:    100,
		HTTP:      true,
		Outputs:   1,
		Feed:      "TICKS",
		History:   30000,
		Expired:   20000,
	},
	{
		Name:      "plan_ingest",
		Sources:   2,
		PacedRate: 45,
		Warmup:    48,
		Outputs:   2,
		Feed:      "EAST",
	},
}

// WorkloadByName finds a workload.
func WorkloadByName(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// subscriberName is the one consumer's configured name.
const subscriberName = "wh"

// ConfigText renders the server configuration; subAddr is the push
// consumer's listen address (unused by the pull workload).
func (w Workload) ConfigText(subAddr string) string {
	var b strings.Builder
	b.WriteString(ingestBlock)
	sub := func(subscribes string) {
		fmt.Fprintf(&b, "subscriber %s { host %q dest \"in\" %s }\n", subscriberName, subAddr, subscribes)
	}
	switch w.Name {
	case "small_push":
		b.WriteString("feedgroup NET {\n")
		for _, kind := range smallKinds {
			for _, region := range smallRegions {
				fmt.Fprintf(&b, "    feed %s_%s { pattern \"src%%i/%s_%s_poller%%i_%%Y%%m%%d%%H%%M%%S.csv\" }\n",
					kind, region, kind, region)
			}
		}
		b.WriteString("}\n")
		sub("subscribe NET")
	case "large_push":
		b.WriteString("feed BULK { pattern \"src%i/BULK_%i_%Y%m%d%H%M%S.bin\" }\n")
		sub("subscribe BULK")
	case "http_pull":
		// No time fields in the pattern: the retention window then
		// expires by arrival time, which the preload back-dates.
		b.WriteString("window 24h\narchive \"archive\"\nhttp { listen \"127.0.0.1:0\" }\n")
		b.WriteString("feed TICKS { pattern \"src%i/TICK_%i.dat\" }\n")
	case "plan_ingest":
		b.WriteString(`feed EV {
    pattern "src%i/EV_%i_%Y%m%d%H%M%S.csv.gz"
    plan {
        decompress gzip
        parse csv
        validate { columns 4 utf8 }
        extract host 1
        extract region 2
        enrich { table "tables/hosts.csv" key host }
        route region { "east" EAST "west" WEST }
    }
}
feed EAST { }
feed WEST { }
`)
		sub("subscribe EAST subscribe WEST")
	}
	return b.String()
}

// prepared is what Prepare learned while building a server root.
type prepared struct {
	// head is the highest preloaded receipt id (the pull consumer's
	// starting cursor is head+1).
	head uint64
	// expire is how long archiving the expired history took.
	expire time.Duration
}

// Prepare builds the on-disk state a workload's server boots on: the
// plan's side table, or http_pull's receipt history with its oldest
// part already expired into the archive manifest. History is written
// without fsyncs (it is input, not the system under test) and
// checkpointed, then the server boots on it with syncs on.
func (w Workload) Prepare(root string) (prepared, error) {
	var p prepared
	switch w.Name {
	case "plan_ingest":
		dir := filepath.Join(root, "tables")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return p, err
		}
		return p, os.WriteFile(filepath.Join(dir, "hosts.csv"), PlanSideTable(), 0o644)
	case "http_pull":
		return w.preloadHistory(root)
	}
	return p, nil
}

func (w Workload) preloadHistory(root string) (prepared, error) {
	var p prepared
	nosync := diskfault.NoSync(diskfault.OS())
	stage := filepath.Join(root, "staging")
	dir := filepath.Join(stage, w.Feed, "src0")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return p, err
	}
	store, err := receipts.Open(filepath.Join(root, "receipts"), receipts.Options{NoSync: true, FS: nosync})
	if err != nil {
		return p, err
	}
	defer store.Close()
	// History files are hard links to one template: the read plane
	// under test never opens them (the consumer starts at the head),
	// and a link costs a fraction of creating a file.
	now := time.Now()
	data := []byte("preloaded history\n")
	template := filepath.Join(dir, ".template")
	if err := os.WriteFile(template, data, 0o644); err != nil {
		return p, err
	}
	defer os.Remove(template)
	for i := 0; i < w.History; i++ {
		name := fmt.Sprintf("src0/TICK_%d.dat", i)
		staged := w.Feed + "/" + name
		if err := os.Link(template, filepath.Join(stage, filepath.FromSlash(staged))); err != nil {
			return p, err
		}
		arrived := now.Add(-time.Hour)
		if i < w.Expired {
			arrived = now.Add(-48 * time.Hour)
		}
		id, err := store.RecordArrival(receipts.FileMeta{
			Name: name, StagedPath: staged, Feeds: []string{w.Feed},
			Size: int64(len(data)), Checksum: crcOf(data), Arrived: arrived,
		})
		if err != nil {
			return p, err
		}
		p.head = id
	}
	arch, err := archive.New(store, clock.NewReal(), stage, filepath.Join(root, "archive"), 24*time.Hour)
	if err != nil {
		return p, err
	}
	arch.FS = nosync
	if err := arch.EnableManifest(); err != nil {
		return p, err
	}
	start := time.Now()
	n, err := arch.ExpireOnce()
	if err != nil {
		return p, err
	}
	if n != w.Expired {
		return p, fmt.Errorf("benchmark: preload expired %d files, want %d", n, w.Expired)
	}
	p.expire = time.Since(start)
	return p, store.Checkpoint()
}
