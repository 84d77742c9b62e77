package config

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"bistro/internal/pattern"
)

// update rewrites testdata/*.golden from this tree's Parse and Format.
// The committed goldens were captured with it at commit 2b4e7a2, the
// parent of the table-driven parser (this file compiles there
// unchanged), so TestGoldenCorpus proves the schema walkers serve
// exactly what the hand-written block parsers served. Re-capturing
// turns that proof into a tautology: do it only for a deliberate,
// reviewed language change.
var update = flag.Bool("update", false, "rewrite testdata/*.golden")

// parentDiffers lists, per corpus file, the one edit that turns the
// parent's captured output into today's: every other byte must match.
var parentDiffers = map[string][2]string{
	// Format used to drop `retry 0s`, and the re-parse gave the 30s
	// default; a value that differs from the declared default is now
	// always written.
	"retry_zero": {"    subscribe F\n", "    subscribe F\n    retry 0s\n"},
}

// corpus returns testdata/*.conf by base name: the docs/CONFIG.md
// examples (each fenced block, with the feeds and subscribers it
// refers to declared around it), the four configurations
// benchmark/workload.go generates, the fuzz seeds, and the schema-
// generated minimal and maximal configuration per block (gen_*, kept
// current by TestGeneratedSeeds).
func corpus(t testing.TB) map[string]string {
	t.Helper()
	files, err := filepath.Glob("testdata/*.conf")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus: %v", err)
	}
	out := make(map[string]string, len(files))
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out[strings.TrimSuffix(filepath.Base(f), ".conf")] = string(src)
	}
	return out
}

// golden is what a corpus file's .golden pins: the formatted text and
// every field of the parsed configuration, or that it does not parse.
func golden(src string) string {
	cfg, err := Parse(src)
	if err != nil {
		return "PARSE ERROR\n"
	}
	return "== format\n" + Format(cfg) + "== config\n" + dumpConfig(cfg)
}

func TestGoldenCorpus(t *testing.T) {
	for name, src := range corpus(t) {
		file := filepath.Join("testdata", name+".golden")
		got := golden(src)
		if *update {
			if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		parent := string(want)
		if d, ok := parentDiffers[name]; ok {
			if parent = strings.Replace(parent, d[0], d[1], 1); parent == string(want) {
				t.Errorf("%s: listed difference %q not found in the golden", name, d[0])
			}
		}
		if got != parent {
			t.Errorf("%s: output differs from the parent commit's\n--- got\n%s\n--- want\n%s", name, got, parent)
		}
	}
}

// dumpConfig renders every leaf field of a configuration as one
// `path = value` line, sorted, so two configurations are equal exactly
// when their dumps are. Patterns compare by their source text. Two
// orders are not semantic and are canonicalised, as format_test's
// equalConfigs does: feeds are keyed by path (Format regroups them
// under their feedgroups), and subscription lists are sorted (Format
// sorts them; resolve expands them into a set).
func dumpConfig(cfg *Config) string {
	var lines []string
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		if pat, ok := v.Interface().(*pattern.Pattern); ok {
			if pat != nil {
				lines = append(lines, fmt.Sprintf("%s = pattern %q", path, pat))
			}
			return
		}
		switch v.Kind() {
		case reflect.Ptr:
			if v.IsNil() {
				lines = append(lines, path+" = nil")
			} else {
				walk(path, v.Elem())
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
		case reflect.Slice:
			lines = append(lines, fmt.Sprintf("%s.len = %d", path, v.Len()))
			if strings.HasSuffix(path, ".Subscriptions") {
				sorted := append([]string{}, v.Interface().([]string)...)
				sort.Strings(sorted)
				v = reflect.ValueOf(sorted)
			}
			for i := 0; i < v.Len(); i++ {
				key := fmt.Sprint(i)
				if f, ok := v.Index(i).Interface().(*Feed); ok {
					key = f.Path
				}
				walk(fmt.Sprintf("%s[%s]", path, key), v.Index(i))
			}
		case reflect.Map:
			for _, k := range v.MapKeys() {
				walk(fmt.Sprintf("%s[%s]", path, k), v.MapIndex(k))
			}
		case reflect.String:
			lines = append(lines, fmt.Sprintf("%s = %q", path, v.String()))
		default:
			lines = append(lines, fmt.Sprintf("%s = %v", path, v.Interface()))
		}
	}
	walk("cfg", reflect.ValueOf(cfg))
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}
