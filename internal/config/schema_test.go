package config

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// roundTrip checks the Format contract on an accepted configuration:
// the formatted text re-parses, to a configuration equal field by
// field, and formatting that one changes nothing.
func roundTrip(t testing.TB, cfg *Config) {
	t.Helper()
	out := Format(cfg)
	cfg2, err := Parse(out)
	if err != nil {
		t.Fatalf("Format output does not re-parse: %v\n%s", err, out)
	}
	if a, b := dumpConfig(cfg), dumpConfig(cfg2); a != b {
		t.Fatalf("re-parsed configuration differs:\n--- formatted\n%s\n--- first\n%s\n--- second\n%s", out, a, b)
	}
	if out2 := Format(cfg2); out2 != out {
		t.Fatalf("Format not a fixed point:\n--- first\n%s\n--- second\n%s", out, out2)
	}
}

// generatedSeeds is one minimal and one maximal configuration per
// block of the schema (and one pair for the top-level scalars).
func generatedSeeds() map[string]string {
	out := make(map[string]string)
	blocks := []string{"top", "feed"}
	for _, f := range configSchema.fields {
		if f.kind == kBlock {
			blocks = append(blocks, f.kw)
		}
	}
	for _, kw := range blocks {
		out["gen_min_"+kw] = (&gen{min: true}).document(kw)
		out["gen_max_"+kw] = (&gen{}).document(kw)
	}
	return out
}

// TestGeneratedSeeds keeps testdata/gen_*.conf — fuzz seeds and golden
// corpus entries — equal to what the schema generates today.
func TestGeneratedSeeds(t *testing.T) {
	for name, text := range generatedSeeds() {
		file := filepath.Join("testdata", name+".conf")
		if *update {
			if err := os.WriteFile(file, []byte(text), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		have, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if string(have) != text {
			t.Errorf("%s is stale: the schema now generates\n%s", file, text)
		}
		cfg, err := Parse(text)
		if err != nil {
			t.Fatalf("%s: %v\n%s", name, err, text)
		}
		roundTrip(t, cfg)
	}
}

// TestSchemaRoundTripProperty builds random valid configurations by
// walking the schema — nested and repeated blocks included — and
// checks the round-trip contract on each.
func TestSchemaRoundTripProperty(t *testing.T) {
	blocks := make(map[string]int)
	for seed := int64(0); seed < 600; seed++ {
		text := (&gen{rnd: rand.New(rand.NewSource(seed))}).document("")
		cfg, err := Parse(text)
		if err != nil {
			t.Fatalf("seed %d: generated configuration rejected: %v\n%s", seed, err, text)
		}
		roundTrip(t, cfg)
		for _, f := range configSchema.fields {
			if fv := reflect.ValueOf(cfg).Elem().Field(f.index); f.kind == kBlock && !fv.IsZero() {
				blocks[f.kw]++
			}
		}
	}
	for _, f := range configSchema.fields {
		if f.kind == kBlock && blocks[f.kw] < 100 {
			t.Errorf("block %s generated only %d times in 600", f.kw, blocks[f.kw])
		}
	}
}

// TestDuplicateStatements: a statement that is not repeatable is
// rejected the second time it appears in one block, at any level, with
// the line of the second occurrence; repeatable ones keep repeating.
func TestDuplicateStatements(t *testing.T) {
	const base = "feed F { pattern \"f_%Y.gz\" }\nfeed G { pattern \"g_%Y.gz\" }\nsubscriber s { dest \"d\" subscribe F }\n"
	node := ` node "a" { addr "x:1" }`
	rejected := []struct{ name, first, second, tail string }{
		{"window", `window 1h`, `window 2h`, ``},
		{"landing", `landing "a"`, `landing "b"`, ``},
		{"scheduler", `scheduler { partition p { workers 1 } }`, `scheduler { partition q { workers 1 } }`, ``},
		{"backoff", `backoff { base 1s }`, `backoff { max 2s }`, ``},
		{"admin", `admin { listen "a:1" }`, `admin { listen "a:2" }`, ``},
		{"http", `http { listen "a:1" }`, `http { listen "a:2" }`, ``},
		{"ingest", `ingest { workers 2 }`, `ingest { workers 3 }`, ``},
		{"replay", `replay { rate 1 }`, `replay { rate 2 }`, ``},
		{"cluster", `cluster {` + node + ` }`, `cluster {` + node + ` }`, ``},
		{"group_commit", `ingest { group_commit { max_batch 2 }`, `group_commit { max_batch 3 }`, `}`},
		{"replay partition", `replay { partition { workers 1 }`, `partition { workers 2 }`, `}`},
		{"failover", `cluster {` + node + ` failover { lease 5s }`, `failover { auto on }`, `}`},
		{"subscriber backoff", `subscriber t { subscribe F backoff { base 1s }`, `backoff { base 2s }`, `}`},
		{"ingest workers", `ingest { workers 2`, `workers 3`, `}`},
		{"backoff base", `backoff { base 1s`, `base 2s`, `}`},
		{"backoff jitter", `backoff { jitter on`, `jitter off`, `}`},
		{"admin listen", `admin { listen "a:1"`, `listen "a:2"`, `}`},
		{"http listen", `http { listen "a:1"`, `listen "a:2"`, `}`},
		{"principal token", `http { listen "a:1" principal p { feed F token "t"`, `token "u"`, `} }`},
		{"cluster self", `cluster {` + node + ` self "a"`, `self "a"`, `}`},
		{"node addr", `cluster { node "a" { addr "x:1"`, `addr "x:2"`, `} }`},
		{"failover lease", `cluster {` + node + ` failover { lease 5s`, `lease 6s`, `} }`},
		{"replay manifest", `replay { manifest on`, `manifest on`, `}`},
		{"replay workers", `replay { partition { workers 1`, `workers 2`, `} }`},
		{"scheduler migrate", `scheduler { partition p { workers 1 } migrate on`, `migrate off`, `}`},
		{"partition workers", `scheduler { partition p { workers 1`, `workers 2`, `} }`},
		{"channel group feed", `channels { group g { feed F`, `feed G`, `} }`},
		{"feed normalize", `feed X { pattern "x" normalize "%Y/x"`, `normalize "%Y/y"`, `}`},
		{"feed compress", `feed X { pattern "x" compress gzip`, `compress none`, `}`},
		{"feed expect", `feed X { pattern "x" expect 5m 1`, `expect 5m 2`, `}`},
		{"feed priority", `feed X { pattern "x" priority 1`, `priority 2`, `}`},
		{"feed plan", `feed X { pattern "x" plan { parse lines }`, `plan { parse csv }`, `}`},
		{"subscriber dest", `subscriber t { subscribe F dest "a"`, `dest "b"`, `}`},
		{"subscriber retry", `subscriber t { subscribe F retry 1s`, `retry 2s`, `}`},
		{"subscriber trigger", `subscriber t { subscribe F trigger perfile exec "a"`, `trigger perfile exec "b"`, `}`},
	}
	for _, tc := range rejected {
		// The second occurrence sits alone on line 5.
		src := base + tc.first + "\n" + tc.second + "\n" + tc.tail
		_, err := Parse(src)
		if err == nil {
			t.Errorf("%s: duplicate accepted:\n%s", tc.name, src)
		} else if msg := err.Error(); !strings.Contains(msg, "line 5: ") || !strings.Contains(msg, "duplicate") {
			t.Errorf("%s: error = %v, want a duplicate error on line 5", tc.name, err)
		}
		// Given once, the statement is fine.
		if _, err := Parse(base + tc.first + "\n" + tc.tail); err != nil {
			t.Errorf("%s: single occurrence rejected: %v", tc.name, err)
		}
	}
	repeatable := []string{
		`feed X { pattern "x" pattern "y" }`,
		`subscriber t { subscribe F subscribe G }`,
		`channels { group g { feed F member s } group h { feed G } } channels { group i { feed F } }`,
		`http { listen "a:1" principal p { token "t" feed F feed G } principal q { token "u" feed F } }`,
		`cluster { node "a" { addr "x:1" } node "b" { addr "x:2" } }`,
		`scheduler { partition p { workers 1 } partition q { workers 1 } }`,
		`feedgroup A { feed X { pattern "x" } } feedgroup A { feed Y { pattern "y" } }`,
	}
	for _, src := range repeatable {
		if _, err := Parse(base + src); err != nil {
			t.Errorf("repeatable statement rejected: %v\n%s", err, src)
		}
	}
	cfg, err := Parse(base + repeatable[2])
	if err != nil || len(cfg.Channels.Groups) != 3 {
		t.Fatalf("channels blocks did not merge their groups: %v", err)
	}
}

// TestSchemaTagsMatchTypes: the words an enum tag lists are the ones
// the field type's String method prints, so parse and Format agree.
func TestSchemaTagsMatchTypes(t *testing.T) {
	for _, f := range append(append([]*field{}, feedSchema.fields...), configSchema.byKw["subscriber"].sub.fields...) {
		if f.kind != kEnum || f.def.Kind() == reflect.String {
			continue
		}
		for i, word := range f.enum {
			v := reflect.New(f.def.Type()).Elem()
			v.SetInt(int64(i))
			if got := fmt.Sprint(v.Interface()); got != word {
				t.Errorf("%s: value %d prints %q, tag says %q", f.kw, i, got, word)
			}
		}
	}
}
