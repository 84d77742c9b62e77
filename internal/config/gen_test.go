package config

import (
	"fmt"
	"math/rand"
	"strings"
)

// gen writes valid configuration text by walking the schema: for each
// statement a block's schema declares, it decides whether to write it
// and draws a value of the declared kind inside the declared bounds.
// What the schema cannot express — the check() rules, the resolve-time
// references between blocks, and the hook grammars — is the short
// list of special cases in value, named and hooked below.
//
// With rnd nil it is deterministic: min writes only what a block needs,
// otherwise everything once (repeatables twice).
type gen struct {
	rnd *rand.Rand
	min bool
	n   int // makes names and strings unique
}

// Every generated document declares these, so paths, channel members
// and plan targets always resolve; w0–w2 subscribe to all feeds.
const (
	genFeeds = `feedgroup G {
    feed A { pattern "a_%i_%Y%m%d.csv" }
    feedgroup H { feed B { pattern "b_%s.gz" } }
}
feed T1 { pattern "t1_%i" }
feed T2 { pattern "t2_%i" }
`
	genSubscribers = `subscriber w0 { dest "in" subscribe G subscribe T1 subscribe T2 }
subscriber w1 { dest "in" subscribe T2 subscribe T1 subscribe G }
subscriber w2 { dest "in" subscribe G subscribe T1 subscribe T2 }
`
)

var (
	genLeaves    = []string{"G/A", "G/H/B", "T1", "T2"}
	genPaths     = append([]string{"G", "G/H"}, genLeaves...)
	genDurations = []string{"0s", "1s", "30s", "45", "1m0s", "1h30m", "250ms", "500us", "72h"}
	genInts      = []int{0, 1, 2, 3, 7, 64, 1000, 1 << 20}
	genStrings   = []string{"", "x", "127.0.0.1:9090", "a b", `q"uo"te`, `back\slash`, "landing", "quarantine"}
)

func (g *gen) pick(n int) int {
	if g.rnd == nil {
		return 0
	}
	return g.rnd.Intn(n)
}

// want decides whether an optional statement is written.
func (g *gen) want() bool {
	if g.rnd == nil {
		return !g.min
	}
	return g.rnd.Intn(2) == 0
}

// document writes a whole configuration. only, when set, restricts the
// top level to that one block keyword, or with "top" to the scalar
// statements (plus, always, the fixed feeds and subscribers).
func (g *gen) document(only string) string {
	var b strings.Builder
	for _, f := range configSchema.fields {
		switch {
		case f.kw == "feed":
			b.WriteString(genFeeds)
			if only == "" || only == "feed" {
				for i := g.count(f); i > 0; i-- {
					g.n++
					var body strings.Builder
					g.body(&body, feedSchema, "feed", "    ")
					text := body.String()
					if strings.Contains(text, "plan {") {
						// checkPlanOps: plan output cannot be re-encoded
						// by a decompressing compress mode.
						text = strings.NewReplacer("compress gunzip", "compress none", "compress bunzip2", "compress gzip").Replace(text)
					}
					fmt.Fprintf(&b, "feed F%d {\n%s}\n", g.n, text)
				}
			}
		case f.kw == "subscriber":
			b.WriteString(genSubscribers)
			if only == "" || only == "subscriber" {
				g.statement(&b, f, "", "")
			}
		case (only == "" || only == "top") && f.kind < kBlock && g.want(), f.kind == kBlock && (only == f.kw || only == "" && g.want()):
			g.statement(&b, f, "", "")
		}
	}
	return b.String()
}

// count is how many times a statement is written: a repeatable or
// merging one once to three times.
func (g *gen) count(f *field) int {
	switch {
	case !f.repeat && !f.merge, g.min:
		return 1
	case g.rnd == nil:
		return 2
	}
	return 1 + g.rnd.Intn(3)
}

// body writes the statements of one block instance.
func (g *gen) body(b *strings.Builder, s *schema, noun, ind string) {
	for _, f := range s.fields {
		// group_commit's check wants one of its two fields; resolve
		// wants a pattern on every feed no plan routes into.
		needed := f.need != "" || noun == "group_commit" && f.kw == "max_batch" || noun == "feed" && f.kw == "pattern"
		if needed || g.want() {
			g.statement(b, f, noun, ind)
		}
	}
}

func (g *gen) statement(b *strings.Builder, f *field, noun, ind string) {
	if f.kind == kHook {
		g.hooked(b, f.kw, ind)
		return
	}
	for i, n := 0, g.count(f); i < n; i++ {
		switch f.kind {
		case kInline:
			fmt.Fprintf(b, "%s%s {\n", ind, f.kw)
			g.body(b, f.sub, noun+" "+f.kw, ind+"    ")
			fmt.Fprintf(b, "%s}\n", ind)
		case kBlock:
			head := f.kw
			if nf := f.sub.name; nf != nil {
				head += " " + g.named(f, nf, i)
			}
			fmt.Fprintf(b, "%s%s {\n", ind, head)
			g.body(b, f.sub, f.noun, ind+"    ")
			fmt.Fprintf(b, "%s}\n", ind)
		default:
			fmt.Fprintf(b, "%s%s %s\n", ind, f.kw, g.value(f, noun, i))
		}
	}
}

// named draws a block's NAME: unique, except that cluster nodes are
// n0, n1, … so that `self "n0"` names one.
func (g *gen) named(f, nf *field, i int) string {
	if f.noun == "cluster node" {
		return fmt.Sprintf("%q", fmt.Sprint("n", i))
	}
	g.n++
	name := fmt.Sprintf("%s%d", f.kw, g.n)
	if nf.kind == kString {
		return quote(name)
	}
	return name
}

// value draws the i-th value of a scalar statement.
func (g *gen) value(f *field, noun string, i int) string {
	switch noun + " " + f.kw {
	case "cluster self":
		return `"n0"`
	case "failover heartbeat": // check: shorter than the lease
		return []string{"1ms", "20ms", "999ms"}[g.pick(3)]
	case "failover lease":
		return []string{"1s", "10s", "1h"}[g.pick(3)]
	case "partition workers": // check: more than backfill
		return fmt.Sprint(4 + g.pick(5))
	case "partition backfill":
		return fmt.Sprint(g.pick(4))
	case "channel group member": // distinct, and subscribed to every feed
		return fmt.Sprint("w", i)
	case "channel group feed":
		return genLeaves[g.pick(len(genLeaves))]
	}
	switch f.kind {
	case kDuration:
		d := genDurations[g.pick(len(genDurations))]
		if f.pos && d == "0s" || g.rnd == nil {
			d = "90s"
		}
		return d
	case kInt, kFloat:
		n := genInts[g.pick(len(genInts))]
		if n < f.min || g.rnd == nil {
			n = 5
		}
		if f.kind == kFloat && g.want() {
			return fmt.Sprintf("%d.5", n)
		}
		return fmt.Sprint(n)
	case kString:
		// Tokens must be unique and names non-empty: number every
		// other string.
		if s := genStrings[g.pick(len(genStrings))]; g.rnd != nil && f.need == "" {
			return quote(s)
		}
		g.n++
		return quote(fmt.Sprint("s", g.n))
	case kIdent:
		g.n++
		return fmt.Sprint("id", g.n)
	case kPath:
		if g.rnd == nil {
			return genPaths[i%len(genPaths)]
		}
		return genPaths[g.pick(len(genPaths))]
	case kEnum:
		if g.rnd == nil {
			return f.enum[len(f.enum)-1]
		}
		return f.enum[g.pick(len(f.enum))]
	case kOnOff:
		return []string{"on", "off"}[g.pick(2)]
	case kPattern:
		g.n++
		return quote(fmt.Sprintf("p%d_%%i_%%Y%%m%%d.dat", g.n))
	}
	panic("gen: no value for " + f.kw)
}

// hooked writes one statement of a hand-written grammar.
func (g *gen) hooked(b *strings.Builder, kw, ind string) {
	opt := func(s string) string {
		if g.want() {
			return s
		}
		return ""
	}
	switch kw {
	case "expect":
		if g.rnd == nil {
			fmt.Fprintf(b, "%sexpect 5m 4\n", ind)
			return
		}
		fmt.Fprintf(b, "%sexpect %s %d\n", ind, genDurations[g.pick(len(genDurations))], genInts[g.pick(4)])
	case "trigger":
		bounds := []string{" count 3", " timeout 10m", " time 90 count 2", " count 4 timeout 1h30m"}[g.pick(4)]
		if g.want() {
			fmt.Fprintf(b, "%strigger perfile%s exec %s\n", ind, opt(" remote"), quote(genStrings[1+g.pick(len(genStrings)-1)]))
		} else {
			fmt.Fprintf(b, "%strigger batch%s%s exec \"load %%f\"\n", ind, bounds, opt(" remote"))
		}
	case "plan":
		// The operators, each optional where the grammar allows, in
		// the one order checkPlanOps accepts.
		fmt.Fprintf(b, "%splan {\n", ind)
		in := ind + "    "
		b.WriteString(opt(in + "decompress " + []string{"gzip", "bzip2"}[g.pick(2)] + "\n"))
		b.WriteString(opt(in + "split T1\n"))
		if g.want() {
			fmt.Fprintf(b, "%sparse json\n%sextract f \"key\"\n", in, in)
		} else {
			fmt.Fprintf(b, "%sparse csv\n%s%sextract f 2\n", in, opt(in+"validate { columns 3 utf8 }\n"), in)
		}
		b.WriteString(opt(in + "validate { require f numeric f }\n"))
		b.WriteString(opt(in + "route f { \"a\" T1 \"b\" T2" + opt(" default T1") + " }\n"))
		b.WriteString(opt(in + "enrich { table \"t.csv\" key f" + opt(" at delivery") + " }\n"))
		fmt.Fprintf(b, "%s}\n", ind)
	}
}
