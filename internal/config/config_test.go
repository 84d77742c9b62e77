package config

import (
	"strings"
	"testing"
	"time"
)

const sample = `
# Bistro server configuration (paper running example)
window 72h
landing "landing"
staging "staging"
archive "archive"

feedgroup SNMP {
    feed BPS {
        pattern "BPS_poller%i_%Y%m%d%H.csv.gz"
        normalize "%Y/%m/%d/BPS_poller%i_%H.csv.gz"
        compress gzip
    }
    feed PPS { pattern "PPS_poller%i_%Y%m%d%H.csv.gz" }
    feedgroup ROUTER {
        feed CPU    { pattern "CPU_POLL%i_%Y%m%d%H%M.txt" }
        feed MEMORY { pattern "MEMORY_POLLER%i_%Y%m%d%H_%M.csv.gz" }
    }
}

feed ALARMS {
    pattern "ALARMHISTORY%i%Y%m%d%H%M.gz"
    pattern "ALARMHIST2_%i_%Y%m%d%H%M.gz"
}

subscriber warehouse {
    host "127.0.0.1:9401"
    dest "incoming"
    subscribe SNMP
    method push
    trigger batch count 3 timeout 10m exec "bin/load %f"
    retry 45s
    class bulk
}

subscriber visualizer {
    host "127.0.0.1:9402"
    dest "viz"
    subscribe SNMP/ROUTER/CPU
    subscribe ALARMS
    method notify
    trigger perfile remote exec "refresh %f"
    class interactive
}
`

func TestParseSample(t *testing.T) {
	cfg, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Window != 72*time.Hour {
		t.Errorf("window = %v", cfg.Window)
	}
	if len(cfg.Feeds) != 5 {
		t.Fatalf("feeds = %d, want 5", len(cfg.Feeds))
	}
	cpu, ok := cfg.FeedByPath("SNMP/ROUTER/CPU")
	if !ok {
		t.Fatal("SNMP/ROUTER/CPU missing")
	}
	if cpu.Name != "CPU" || len(cpu.Patterns) != 1 {
		t.Errorf("cpu feed = %+v", cpu)
	}
	bps, _ := cfg.FeedByPath("SNMP/BPS")
	if bps.Compress != CompressGzip || bps.Normalize == nil {
		t.Errorf("bps feed = %+v", bps)
	}
	alarms, _ := cfg.FeedByPath("ALARMS")
	if len(alarms.Patterns) != 2 {
		t.Errorf("alarms patterns = %d, want 2", len(alarms.Patterns))
	}
}

func TestGroupExpansion(t *testing.T) {
	cfg, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"SNMP/BPS", "SNMP/PPS", "SNMP/ROUTER/CPU", "SNMP/ROUTER/MEMORY"}
	got := cfg.Groups["SNMP"]
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("SNMP group = %v, want %v", got, want)
	}
	wh := cfg.Subscribers[0]
	if strings.Join(wh.Feeds, ",") != strings.Join(want, ",") {
		t.Errorf("warehouse feeds = %v", wh.Feeds)
	}
	viz := cfg.Subscribers[1]
	if strings.Join(viz.Feeds, ",") != "ALARMS,SNMP/ROUTER/CPU" {
		t.Errorf("visualizer feeds = %v", viz.Feeds)
	}
}

func TestSubscribersOf(t *testing.T) {
	cfg, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	subs := cfg.SubscribersOf("SNMP/ROUTER/CPU")
	if len(subs) != 2 {
		t.Fatalf("subscribers of CPU = %v", subs)
	}
	subs = cfg.SubscribersOf("SNMP/BPS")
	if len(subs) != 1 || subs[0] != "warehouse" {
		t.Fatalf("subscribers of BPS = %v", subs)
	}
}

func TestTriggerSpecs(t *testing.T) {
	cfg, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	wh := cfg.Subscribers[0].Trigger
	if wh.Mode != TriggerBatch || wh.Count != 3 || wh.Timeout != 10*time.Minute || wh.Exec != "bin/load %f" || wh.Remote {
		t.Errorf("warehouse trigger = %+v", wh)
	}
	viz := cfg.Subscribers[1].Trigger
	if viz.Mode != TriggerPerFile || !viz.Remote || viz.Exec != "refresh %f" {
		t.Errorf("visualizer trigger = %+v", viz)
	}
}

func TestSubscriberDefaults(t *testing.T) {
	cfg, err := Parse(`
feed F { pattern "f_%Y%m%d.gz" }
subscriber s { dest "d" subscribe F }
`)
	if err != nil {
		t.Fatal(err)
	}
	s := cfg.Subscribers[0]
	if s.Method != MethodPush {
		t.Errorf("default method = %v", s.Method)
	}
	if s.Retry != 30*time.Second {
		t.Errorf("default retry = %v", s.Retry)
	}
	if s.Trigger.Mode != TriggerNone {
		t.Errorf("default trigger = %+v", s.Trigger)
	}
}

func TestBareIntegerDurationIsSeconds(t *testing.T) {
	cfg, err := Parse(`window 3600` + "\n" + `feed F { pattern "f_%Y.gz" }`)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Window != time.Hour {
		t.Errorf("window = %v, want 1h", cfg.Window)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		frag string // expected substring of the error
	}{
		{"unknown statement", `frobnicate`, "unknown statement"},
		{"feed without pattern", `feed F { }`, "no patterns"},
		{"bad pattern", `feed F { pattern "%Q" }`, "unknown conversion"},
		{"duplicate feed", `feed F { pattern "a_%Y.gz" } feed F { pattern "b_%Y.gz" }`, "duplicate feed"},
		{"unknown subscription", `feed F { pattern "a_%Y.gz" } subscriber s { dest "d" subscribe G }`, "unknown feed or group"},
		{"empty subscriber", `feed F { pattern "a_%Y.gz" } subscriber s { dest "d" }`, "subscribes to nothing"},
		{"bad method", `feed F { pattern "a_%Y.gz" } subscriber s { subscribe F method carrier_pigeon }`, "unknown method"},
		{"batch without bound", `feed F { pattern "a_%Y.gz" } subscriber s { subscribe F trigger batch exec "x" }`, "count and/or timeout"},
		{"count on perfile", `feed F { pattern "a_%Y.gz" } subscriber s { subscribe F trigger perfile count 3 exec "x" }`, "only applies to batch"},
		{"unterminated string", `landing "oops`, "unterminated string"},
		{"unterminated block", `feed F { pattern "a_%Y.gz"`, ""},
		{"bad compress", `feed F { pattern "a_%Y.gz" compress lzma }`, "unknown compress"},
		{"bad class", `feed F { pattern "a_%Y.gz" } subscriber s { subscribe F class turbo }`, "unknown class"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("Parse succeeded, want error containing %q", tc.frag)
			}
			if tc.frag != "" && !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("error %q does not contain %q", err, tc.frag)
			}
		})
	}
}

func TestErrorsCarryLineNumbers(t *testing.T) {
	src := "window 1h\n\nfeed F {\n  pattern \"a_%Y.gz\"\n  compress lzma\n}\n"
	_, err := Parse(src)
	if err == nil || !strings.Contains(err.Error(), "line 5") {
		t.Fatalf("error = %v, want line 5", err)
	}
	// Errors found once a block has closed point at the block's opening
	// keyword, here always on line 5 with the closing brace on line 7.
	const head = "feed F { pattern \"a_%Y.gz\" }\nfeed G { pattern \"b_%Y.gz\" }\n\n\n"
	for _, tc := range []struct{ open, frag string }{
		{`admin {`, "admin block needs listen"},
		{`http {`, "http block needs listen"},
		{`http { listen "x" principal p {`, "http principal p needs a token"},
		{`http { listen "x" principal p { token "t" feed F } principal p { token "u" feed F`, "duplicate http principal"},
		{`subscriber s {`, "subscriber s subscribes to nothing"},
		{`scheduler {`, "scheduler block needs at least one partition"},
		{`scheduler { partition p {`, "partition p needs workers"},
		{`scheduler { partition p { workers 2 backfill 2`, "partition p: backfill must leave real-time workers"},
		{`ingest { group_commit {`, "group_commit block needs max_batch and/or max_delay"},
		{`cluster {`, "cluster block needs at least one node"},
		{`cluster { node "x" {`, `cluster node "x" needs addr`},
		{`cluster { node "x" { addr "a:1" } failover { lease 2s heartbeat 2s`, "failover heartbeat (2s) must be shorter than the lease (2s)"},
		{`cluster { node "x" { addr "a:1" } self "y"`, `cluster self "y" is not a listed node`},
		{`channels {`, "channels block needs at least one group"},
		{`channels { group g {`, "channel group g needs a feed"},
		{`feed H { pattern "h" plan {`, "feed H plan: empty plan block"},
	} {
		// Everything up to the failing block sits on line 5 too, so
		// only a position taken from the right keyword passes.
		depth := strings.Count(tc.open, "{") - strings.Count(tc.open, "}")
		_, err := Parse(head + tc.open + "\n\n" + strings.Repeat("}", depth) + "\n")
		if err == nil || !strings.Contains(err.Error(), "line 5: "+tc.frag) {
			t.Errorf("%s: error = %v, want %q at line 5", tc.open, err, tc.frag)
		}
	}
}

func TestCommentsAndEscapes(t *testing.T) {
	cfg, err := Parse(`
# full line comment
feed F { pattern "a_%Y.gz" } # trailing comment
subscriber s {
    dest "dir\\sub\"quoted\""
    subscribe F
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Subscribers[0].Dest != `dir\sub"quoted"` {
		t.Errorf("dest = %q", cfg.Subscribers[0].Dest)
	}
}

func TestDeepHierarchy(t *testing.T) {
	cfg, err := Parse(`
feedgroup A { feedgroup B { feedgroup C { feed D { pattern "d_%Y.gz" } } } }
subscriber s { dest "x" subscribe A/B }
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Subscribers[0].Feeds) != 1 || cfg.Subscribers[0].Feeds[0] != "A/B/C/D" {
		t.Errorf("feeds = %v", cfg.Subscribers[0].Feeds)
	}
	for _, g := range []string{"A", "A/B", "A/B/C"} {
		if len(cfg.Groups[g]) != 1 {
			t.Errorf("group %s = %v", g, cfg.Groups[g])
		}
	}
}

func BenchmarkParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(sample); err != nil {
			b.Fatal(err)
		}
	}
}

func TestExpectStatement(t *testing.T) {
	cfg, err := Parse(`
feed BPS {
    pattern "BPS_poller%i_%Y%m%d%H%M.csv"
    expect 5m 3
}
`)
	if err != nil {
		t.Fatal(err)
	}
	f := cfg.Feeds[0]
	if f.ExpectPeriod != 5*time.Minute || f.ExpectSources != 3 {
		t.Fatalf("expect = %v/%d", f.ExpectPeriod, f.ExpectSources)
	}
	// Malformed expect statements error.
	if _, err := Parse(`feed F { pattern "f_%Y.gz" expect 5m }`); err == nil {
		t.Fatal("expect without sources accepted")
	}
}

func TestPriorityStatement(t *testing.T) {
	cfg, err := Parse(`
feed FAULTS {
    pattern "fault_%Y%m%d%H%M.log"
    priority 10
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Feeds[0].Priority != 10 {
		t.Fatalf("priority = %d", cfg.Feeds[0].Priority)
	}
}

func TestSchedulerBlock(t *testing.T) {
	cfg, err := Parse(`
scheduler {
    migrate on
    partition interactive { workers 2 policy prio-edf maxservice 100ms }
    partition bulk { workers 4 backfill 1 policy max-benefit }
}
feed F { pattern "f_%Y.gz" }
subscriber s { dest "d" subscribe F }
`)
	if err != nil {
		t.Fatal(err)
	}
	sp := cfg.Scheduler
	if sp == nil || !sp.Migrate || len(sp.Partitions) != 2 {
		t.Fatalf("scheduler = %+v", sp)
	}
	p0, p1 := sp.Partitions[0], sp.Partitions[1]
	if p0.Name != "interactive" || p0.Workers != 2 || p0.Policy != "prio-edf" || p0.MaxService != 100*time.Millisecond {
		t.Fatalf("p0 = %+v", p0)
	}
	if p1.Name != "bulk" || p1.Workers != 4 || p1.Backfill != 1 || p1.Policy != "max-benefit" {
		t.Fatalf("p1 = %+v", p1)
	}
}

func TestSchedulerBlockErrors(t *testing.T) {
	cases := []string{
		`scheduler { } feed F { pattern "f_%Y.gz" }`,                                         // empty
		`scheduler { partition p { } } feed F { pattern "f_%Y.gz" }`,                         // no workers
		`scheduler { partition p { workers 2 backfill 2 } } feed F { pattern "f_%Y.gz" }`,    // all backfill
		`scheduler { partition p { workers 2 policy turbo } } feed F { pattern "f_%Y.gz" }`,  // bad policy
		`scheduler { migrate maybe partition p { workers 1 } } feed F { pattern "f_%Y.gz" }`, // bad migrate
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted: %s", src)
		}
	}
}
