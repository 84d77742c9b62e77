package config

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// docSections splits a markdown document by heading: lower-cased
// title → the text up to the next heading of the same or a higher
// level, so a section includes its subsections.
func docSections(md string) map[string]string {
	type heading struct {
		title       string
		level, line int
	}
	lines := strings.Split(md, "\n")
	var heads []heading
	fenced := false
	for i, l := range lines {
		if strings.HasPrefix(l, "```") {
			fenced = !fenced
		}
		if level := len(l) - len(strings.TrimLeft(l, "#")); !fenced && level > 0 && strings.HasPrefix(l[level:], " ") {
			heads = append(heads, heading{strings.ToLower(strings.TrimSpace(l[level:])), level, i})
		}
	}
	out := make(map[string]string)
	for i, h := range heads {
		end := len(lines)
		for _, next := range heads[i+1:] {
			if next.level <= h.level {
				end = next.line
				break
			}
		}
		out[h.title] = strings.Join(lines[h.line+1:end], "\n")
	}
	return out
}

// docMentions returns the lines of text that document keyword kw:
// inline code (a table row's first cell, say) that starts with it, or
// a line of a fenced example led by it.
func docMentions(text, kw string) []string {
	var out []string
	fenced := false
	for _, l := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(l, "```"):
			fenced = !fenced
		case fenced && strings.HasPrefix(strings.TrimSpace(l), kw+" "),
			!fenced && (strings.Contains(l, "`"+kw+" ") || strings.Contains(l, "`"+kw+"`")):
			out = append(out, l)
		}
	}
	return out
}

var docDefault = regexp.MustCompile("\\(default `?([^\\s`,;)]+)")

// TestDocsMatchSchema reads docs/CONFIG.md against the schema, so the
// reference cannot drift from the parser: every keyword of every
// block appears in backticks in that block's section — as inline code
// starting with the keyword, or leading a line of the section's fenced
// example — and a documented default equals the declared one.
//
// A block's section is the one headed "<keyword> block" (or "body"),
// read together with the enclosing block's section, where nested
// blocks are shown. Numeric defaults documented for statements whose
// declared default is zero ("queue 256 (default 256)") are what the
// server substitutes for "unset"; they live outside this package and
// are not checked here.
func TestDocsMatchSchema(t *testing.T) {
	md, err := os.ReadFile("../../docs/CONFIG.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := docSections(string(md))
	var walk func(s *schema, block, text string)
	walk = func(s *schema, block, text string) {
		for _, f := range s.fields {
			lines := docMentions(text, f.kw)
			if len(lines) == 0 {
				t.Errorf("%s: keyword %q is not documented", block, f.kw)
			}
			want := ""
			if f.kind < kBlock && (!f.def.IsZero() || f.kind == kOnOff) {
				want = strings.Trim(f.render(f.def), `"`)
			}
			documented := false
			for _, l := range lines {
				m := docDefault.FindStringSubmatch(l)
				if m == nil || want == "" {
					continue
				}
				if documented = true; m[1] != want {
					t.Errorf("%s: %q documents default %s, the schema declares %s\n%s", block, f.kw, m[1], want, l)
				}
			}
			if want != "" && f.kind != kOnOff && !documented {
				t.Errorf("%s: %q declares default %s, which the docs do not state", block, f.kw, want)
			}
			if f.kind == kBlock || f.kind == kInline {
				sub := text
				for _, suffix := range []string{" block", " body"} {
					sub += "\n" + sections[f.kw+suffix]
				}
				walk(f.sub, block+" "+f.kw, sub)
			}
		}
	}
	walk(configSchema, "top level", sections["top-level statements"])
	walk(feedSchema, "feed", sections["feed body"])
}

// TestDocsExamplesInCorpus: the fenced example of every block section
// of docs/CONFIG.md, and its complete example, is part of the golden
// corpus word for word (TestGoldenCorpus then proves it parses and
// formats as it did at the parent commit).
func TestDocsExamplesInCorpus(t *testing.T) {
	md, err := os.ReadFile("../../docs/CONFIG.md")
	if err != nil {
		t.Fatal(err)
	}
	files := corpus(t)
	words := func(s string) string { return strings.Join(strings.Fields(s), " ") }
	for title, text := range docSections(string(md)) {
		name := "docs_" + strings.Fields(title)[0]
		if !strings.HasSuffix(title, " block") && name != "docs_complete" {
			continue
		}
		if _, rest, ok := strings.Cut(text, "```\n"); !ok {
			continue // a block documented in prose, inside its parent's example
		} else if example, _, _ := strings.Cut(rest, "```"); !strings.Contains(words(files[name]), words(example)) {
			t.Errorf("testdata/%s.conf does not contain the %q example:\n%s", name, title, example)
		}
	}
}
