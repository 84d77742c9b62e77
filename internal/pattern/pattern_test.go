package pattern

import (
	"fmt"
	"math/rand"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestCompileErrors(t *testing.T) {
	for _, src := range []string{
		"",
		"abc%",
		"abc%Q",
		"%s%s",     // adjacent unbounded
		"%s*",      // adjacent unbounded
		"*%s",      // adjacent unbounded
		"a%Y%Yb",   // duplicate time conversion
		"x%m_%m.t", // duplicate month
	} {
		if _, err := Compile(src); err == nil {
			t.Errorf("Compile(%q) succeeded, want error", src)
		}
	}
}

func TestCompileOK(t *testing.T) {
	for _, src := range []string{
		"MEMORY%s.%Y%m%d.gz",
		"MEMORY_poller%i_%Y%m%d.gz",
		"TRAP__%Y%m%d_DCTAGN_klpi.txt",
		"%Y/%m/%d/poller%i.csv.gz",
		"plain-literal.txt",
		"100%%done_%Y.log",
		"*_%Y%m%d.csv.gz",
		"CPU_POLL%i_%Y%m%d%H%M.txt",
	} {
		if _, err := Compile(src); err != nil {
			t.Errorf("Compile(%q): %v", src, err)
		}
	}
}

func TestMatchPaperExamples(t *testing.T) {
	tests := []struct {
		pattern string
		name    string
		ok      bool
	}{
		{"MEMORY_POLLER%i_%Y%m%d%H_%M.csv.gz", "MEMORY_POLLER1_2010092504_51.csv.gz", true},
		{"MEMORY_POLLER%i_%Y%m%d%H_%M.csv.gz", "MEMORY_POLLER2_2010092504_59.csv.gz", true},
		{"MEMORY_POLLER%i_%Y%m%d%H_%M.csv.gz", "CPU_POLL1_201009250502.txt", false},
		{"CPU_POLL%i_%Y%m%d%H%M.txt", "CPU_POLL2_201009251001.txt", true},
		{"MEMORY_poller%i_%Y%m%d.gz", "MEMORY_poller1_20100925.gz", true},
		// The false-negative example from §5.2: capitalized Poller.
		{"MEMORY_poller%i_%Y%m%d.gz", "MEMORY_Poller1_20100926.gz", false},
		{"Poller%i_router_%s_%Y_%m_%d_%H.csv.gz", "Poller1_router_a_2010_12_30_00.csv.gz", true},
		{"TRAP__%Y%m%d_DCTAGN_klpi.txt", "TRAP__20100308_DCTAGN_klpi.txt", true},
	}
	for _, tc := range tests {
		p := MustCompile(tc.pattern)
		if got := p.Matches(tc.name); got != tc.ok {
			t.Errorf("%q.Matches(%q) = %v, want %v", tc.pattern, tc.name, got, tc.ok)
		}
	}
}

func TestMatchExtractsFields(t *testing.T) {
	p := MustCompile("MEMORY_POLLER%i_%Y%m%d%H_%M.csv.gz")
	f, ok := p.Match("MEMORY_POLLER7_2010092504_51.csv.gz")
	if !ok {
		t.Fatal("no match")
	}
	if len(f.Ints) != 1 || f.Ints[0] != 7 {
		t.Fatalf("Ints = %v, want [7]", f.Ints)
	}
	ts, ok := f.Time.Timestamp(time.UTC)
	if !ok {
		t.Fatal("no timestamp")
	}
	want := time.Date(2010, 9, 25, 4, 51, 0, 0, time.UTC)
	if !ts.Equal(want) {
		t.Fatalf("timestamp = %v, want %v", ts, want)
	}
}

func TestMatchStringField(t *testing.T) {
	p := MustCompile("Poller%i_router_%s_%Y_%m_%d_%H.csv.gz")
	f, ok := p.Match("Poller1_router_a_2010_12_30_00.csv.gz")
	if !ok {
		t.Fatal("no match")
	}
	if len(f.Strings) != 1 || f.Strings[0] != "a" {
		t.Fatalf("Strings = %v, want [a]", f.Strings)
	}
}

func TestMatchRejectsBadCalendar(t *testing.T) {
	p := MustCompile("x_%Y%m%d.gz")
	if p.Matches("x_20101340.gz") { // month 13
		t.Error("matched month 13")
	}
	if p.Matches("x_20101232.gz") { // day 32
		t.Error("matched day 32")
	}
	if !p.Matches("x_20101231.gz") {
		t.Error("rejected valid date")
	}
}

func TestMatchBacktracking(t *testing.T) {
	// %i followed by fixed-width year: integer must shrink so the
	// year can match.
	p := MustCompile("f%i%Y.log")
	f, ok := p.Match("f1232011.log")
	if !ok {
		t.Fatal("no match")
	}
	if f.Ints[0] != 123 || f.Time.Year != 2011 {
		t.Fatalf("got int=%d year=%d, want 123/2011", f.Ints[0], f.Time.Year)
	}
}

func TestMatchStringGreedyBacktrack(t *testing.T) {
	p := MustCompile("%s_%Y.log")
	f, ok := p.Match("a_b_2011.log")
	if !ok {
		t.Fatal("no match")
	}
	if f.Strings[0] != "a_b" {
		t.Fatalf("greedy %%s = %q, want a_b", f.Strings[0])
	}
}

func TestStringDoesNotCrossSlash(t *testing.T) {
	p := MustCompile("%s.csv")
	if p.Matches("dir/file.csv") {
		t.Error("string conversion matched across '/'")
	}
	p2 := MustCompile("%Y/%m/%d/%s.csv")
	if !p2.Matches("2011/06/12/x.csv") {
		t.Error("hierarchical pattern failed")
	}
}

func TestWildcard(t *testing.T) {
	p := MustCompile("*_%Y%m%d.csv.gz")
	for _, name := range []string{
		"poller1_20101230.csv.gz",
		"anything-at-all_20101230.csv.gz",
		"_20101230.csv.gz", // empty wildcard
	} {
		if !p.Matches(name) {
			t.Errorf("wildcard rejected %q", name)
		}
	}
	if p.Matches("poller1_20101230.csv") {
		t.Error("wildcard matched wrong suffix")
	}
}

func TestPercentLiteral(t *testing.T) {
	p := MustCompile("load100%%_%Y.txt")
	if !p.Matches("load100%_2011.txt") {
		t.Error("percent literal failed")
	}
}

func TestYear2Pivot(t *testing.T) {
	p := MustCompile("f_%y%m%d.log")
	f, _ := p.Match("f_990101.log")
	if f == nil || f.Time.Year != 1999 {
		t.Fatalf("99 → %v, want 1999", f)
	}
	f, _ = p.Match("f_100101.log")
	if f == nil || f.Time.Year != 2010 {
		t.Fatalf("10 → %v, want 2010", f)
	}
}

func TestLiteralPrefix(t *testing.T) {
	tests := []struct {
		src      string
		prefix   string
		complete bool
	}{
		{"MEMORY%s.gz", "MEMORY", false},
		{"%s.gz", "", false},
		{"static.txt", "static.txt", true},
		{"*_x", "", false},
	}
	for _, tc := range tests {
		p := MustCompile(tc.src)
		pre, comp := p.LiteralPrefix()
		if pre != tc.prefix || comp != tc.complete {
			t.Errorf("%q.LiteralPrefix() = (%q,%v), want (%q,%v)", tc.src, pre, comp, tc.prefix, tc.complete)
		}
	}
}

func TestSpecificityOrdering(t *testing.T) {
	generic := MustCompile("*_%Y%m%d.csv.gz")
	specific := MustCompile("MEMORY_poller%i_%Y%m%d.csv.gz")
	if specific.Specificity() <= generic.Specificity() {
		t.Errorf("specific (%d) should outrank generic (%d)",
			specific.Specificity(), generic.Specificity())
	}
}

func TestRenderRoundTrip(t *testing.T) {
	p := MustCompile("MEMORY_POLLER%i_%Y%m%d%H_%M.csv.gz")
	name := "MEMORY_POLLER3_2010092504_51.csv.gz"
	f, ok := p.Match(name)
	if !ok {
		t.Fatal("no match")
	}
	got, err := p.Render(f)
	if err != nil {
		t.Fatal(err)
	}
	if got != name {
		t.Fatalf("render = %q, want %q", got, name)
	}
}

func TestRenderIntoDifferentLayout(t *testing.T) {
	// The normalizer's core move: extract with one pattern, render
	// with another (daily-directory layout).
	src := MustCompile("MEMORY_POLLER%i_%Y%m%d%H_%M.csv.gz")
	dst := MustCompile("%Y/%m/%d/MEMORY_POLLER%i_%H%M.csv.gz")
	f, ok := src.Match("MEMORY_POLLER3_2010092504_51.csv.gz")
	if !ok {
		t.Fatal("no match")
	}
	got, err := dst.Render(f)
	if err != nil {
		t.Fatal(err)
	}
	if got != "2010/09/25/MEMORY_POLLER3_0451.csv.gz" {
		t.Fatalf("render = %q", got)
	}
}

func TestRenderErrors(t *testing.T) {
	p := MustCompile("x%i_%Y.gz")
	if _, err := p.Render(&Fields{}); err == nil {
		t.Error("render with missing int should fail")
	}
	f := &Fields{Ints: []int64{1}}
	if _, err := p.Render(f); err == nil {
		t.Error("render with missing year should fail")
	}
}

func TestRegexpEquivalence(t *testing.T) {
	pats := []string{
		"MEMORY_POLLER%i_%Y%m%d%H_%M.csv.gz",
		"CPU_POLL%i_%Y%m%d%H%M.txt",
		"*_%Y%m%d.csv.gz",
		"%s.%Y%m%d.gz",
	}
	names := []string{
		"MEMORY_POLLER1_2010092504_51.csv.gz",
		"CPU_POLL2_201009251001.txt",
		"poller1_20101230.csv.gz",
		"ALARMHISTORY9.20101230.gz",
		"garbage",
		"",
	}
	for _, src := range pats {
		p := MustCompile(src)
		re := regexp.MustCompile(p.Regexp())
		for _, n := range names {
			// Regexp has no calendar validation, so only compare when
			// the regexp matches — pattern may additionally reject.
			if p.Matches(n) && !re.MatchString(n) {
				t.Errorf("pattern %q matches %q but regexp does not", src, n)
			}
			if !re.MatchString(n) && p.Matches(n) {
				t.Errorf("inconsistency for %q / %q", src, n)
			}
		}
	}
}

func TestTimePartsGranularity(t *testing.T) {
	tests := []struct {
		src  string
		name string
		want time.Duration
	}{
		{"a_%Y%m%d%H%M.t", "a_201009250451.t", time.Minute},
		{"a_%Y%m%d%H.t", "a_2010092504.t", time.Hour},
		{"a_%Y%m%d.t", "a_20100925.t", 24 * time.Hour},
		{"a_%Y.t", "a_2010.t", 365 * 24 * time.Hour},
	}
	for _, tc := range tests {
		f, ok := MustCompile(tc.src).Match(tc.name)
		if !ok {
			t.Fatalf("%q no match", tc.name)
		}
		if got := f.Time.Granularity(); got != tc.want {
			t.Errorf("%q granularity = %v, want %v", tc.src, got, tc.want)
		}
	}
}

func TestTimestampDefaults(t *testing.T) {
	f, ok := MustCompile("a_%Y%m.t").Match("a_201009.t")
	if !ok {
		t.Fatal("no match")
	}
	ts, ok := f.Time.Timestamp(time.UTC)
	if !ok {
		t.Fatal("no timestamp")
	}
	want := time.Date(2010, 9, 1, 0, 0, 0, 0, time.UTC)
	if !ts.Equal(want) {
		t.Fatalf("ts = %v, want %v", ts, want)
	}
	// No time conversions at all.
	f2, _ := MustCompile("plain%i.t").Match("plain5.t")
	if _, ok := f2.Time.Timestamp(time.UTC); ok {
		t.Error("timestamp reported for pattern without time fields")
	}
}

// Property: for a random generated filename from a pattern with random
// field values, Match must succeed and Render must reproduce the name.
func TestQuickMatchRenderRoundTrip(t *testing.T) {
	p := MustCompile("FEED_%s_POLLER%i_%Y%m%d%H_%M.csv.gz")
	cfg := &quick.Config{MaxCount: 400}
	fn := func(sRaw string, iRaw uint32, tsRaw int64) bool {
		// Constrain the string field: non-empty, no '/', no digits
		// adjacent to the integer field (delimited by '_' anyway),
		// and no '_' (greedy %s would otherwise legitimately absorb
		// differently on re-match).
		s := sanitize(sRaw)
		if s == "" {
			s = "x"
		}
		ts := time.Unix(int64(uint64(tsRaw)%4102444800), 0).UTC() // < year 2100
		f := &Fields{
			Strings: []string{s},
			Ints:    []int64{int64(iRaw % 1000)},
			Time: TimeParts{
				Year: ts.Year(), Month: int(ts.Month()), Day: ts.Day(),
				Hour: ts.Hour(), Minute: ts.Minute(),
				HasYear: true, HasMonth: true, HasDay: true,
				HasHour: true, HasMinute: true,
			},
		}
		name, err := p.Render(f)
		if err != nil {
			return false
		}
		got, ok := p.Match(name)
		if !ok {
			return false
		}
		rt, err := p.Render(got)
		return err == nil && rt == name
	}
	if err := quick.Check(fn, cfg); err != nil {
		t.Error(err)
	}
}

func sanitize(s string) string {
	var b strings.Builder
	for _, r := range s {
		if (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') {
			b.WriteRune(r)
		}
		if b.Len() >= 12 {
			break
		}
	}
	return b.String()
}

// Property: Matches agrees with the generated Regexp on calendar-valid
// random strings drawn from an alphabet likely to produce near-misses.
func TestQuickRegexpAgreement(t *testing.T) {
	p := MustCompile("M_%i_%Y%m%d.gz")
	re := regexp.MustCompile(p.Regexp())
	rng := rand.New(rand.NewSource(42))
	alphabet := "M_0123456789.gz"
	for i := 0; i < 2000; i++ {
		n := rng.Intn(24)
		var b strings.Builder
		for j := 0; j < n; j++ {
			b.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		name := b.String()
		pm := p.Matches(name)
		rm := re.MatchString(name)
		if pm && !rm {
			t.Fatalf("pattern matched %q but regexp did not", name)
		}
		if rm && !pm {
			// Acceptable only when the calendar check rejected it.
			var c captures
			if p.match(name, 0, 0, &c, &matchState{budget: 1 << 20}) && c.time.Valid() {
				t.Fatalf("regexp matched %q but pattern did not, and calendar is valid", name)
			}
		}
	}
}

// A name that does not match must cost no allocation — the classifier
// tries every indexed candidate per file — and Matches none at all; a
// hit pays only for the Fields it returns.
func TestMatchAllocs(t *testing.T) {
	p := MustCompile("src%i/BPS_NE_poller%i_%Y%m%d%H%M%S.csv")
	hit := "src1/BPS_NE_poller7_20100925045100.csv"
	// Shares the literal prefix and the first capture, fails later: the
	// shape of the 99 misses per file on a 100-feed source directory.
	miss := "src1/PPS_SW_poller7_20100925045100.csv"
	if _, ok := p.Match(hit); !ok {
		t.Fatal("hit did not match")
	}
	if p.Matches(miss) {
		t.Fatal("miss matched")
	}
	if n := testing.AllocsPerRun(200, func() { p.Match(miss) }); n != 0 {
		t.Errorf("Match on a miss allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { p.Matches(miss) }); n != 0 {
		t.Errorf("Matches on a miss allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { p.Matches(hit) }); n != 0 {
		t.Errorf("Matches on a hit allocates %v times, want 0", n)
	}
	// The Fields and its one capture slice (Ints; no %s here).
	if n := testing.AllocsPerRun(200, func() { p.Match(hit) }); n > 2 {
		t.Errorf("Match on a hit allocates %v times, want <= 2", n)
	}
}

// Captures past the inline bound spill to the heap and come back in
// pattern order, through backtracking.
func TestMatchManyCaptures(t *testing.T) {
	p := MustCompile(strings.Repeat("%s_%i-", inlineCaptures+3) + "end")
	var name strings.Builder
	var wantS []string
	var wantI []int64
	for i := 0; i < inlineCaptures+3; i++ {
		// The %s capture itself contains '_', so the greedy match has to
		// back off through pushes and pops on both sides of the bound.
		fmt.Fprintf(&name, "a_b%d_%d-", i, i*7)
		wantS = append(wantS, fmt.Sprintf("a_b%d", i))
		wantI = append(wantI, int64(i*7))
	}
	name.WriteString("end")
	f, ok := p.Match(name.String())
	if !ok {
		t.Fatalf("no match for %q", name.String())
	}
	if !reflect.DeepEqual(f.Strings, wantS) || !reflect.DeepEqual(f.Ints, wantI) {
		t.Fatalf("captures = %q %v, want %q %v", f.Strings, f.Ints, wantS, wantI)
	}
	got, err := p.Render(f)
	if err != nil || got != name.String() {
		t.Fatalf("render = %q, %v", got, err)
	}
}

func BenchmarkMatchHit(b *testing.B) {
	p := MustCompile("MEMORY_POLLER%i_%Y%m%d%H_%M.csv.gz")
	name := "MEMORY_POLLER1_2010092504_51.csv.gz"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !p.Matches(name) {
			b.Fatal("no match")
		}
	}
}

func BenchmarkMatchMiss(b *testing.B) {
	p := MustCompile("MEMORY_POLLER%i_%Y%m%d%H_%M.csv.gz")
	name := "CPU_POLL1_201009250502.txt"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if p.Matches(name) {
			b.Fatal("unexpected match")
		}
	}
}

// Property: every name matched by a pattern starts with the pattern's
// literal prefix — the invariant the classifier's trie index relies on.
func TestQuickLiteralPrefixInvariant(t *testing.T) {
	pats := []*Pattern{
		MustCompile("MEMORY_POLLER%i_%Y%m%d%H_%M.csv.gz"),
		MustCompile("CPU_POLL%i_%Y%m%d%H%M.txt"),
		MustCompile("%s_%Y%m%d.gz"),
		MustCompile("*_suffix.txt"),
		MustCompile("TRAP__%Y%m%d_DCTAGN_klpi.txt"),
	}
	rng := rand.New(rand.NewSource(11))
	alphabet := "MEMORYCPUTRAP_POL0123456789._csvgztxt-"
	for i := 0; i < 3000; i++ {
		n := rng.Intn(40)
		var b strings.Builder
		for j := 0; j < n; j++ {
			b.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		name := b.String()
		for _, p := range pats {
			if !p.Matches(name) {
				continue
			}
			prefix, _ := p.LiteralPrefix()
			if !strings.HasPrefix(name, prefix) {
				t.Fatalf("pattern %q matched %q without its prefix %q", p, name, prefix)
			}
		}
	}
}

// Property: Specificity is consistent with subset semantics on a
// ladder of increasingly generic patterns.
func TestSpecificityLadder(t *testing.T) {
	ladder := []string{
		"MEMORY_POLLER1_20100925.csv.gz", // all literal
		"MEMORY_POLLER%i_%Y%m%d.csv.gz",
		"MEMORY_%s_%Y%m%d.csv.gz",
		"*_%Y%m%d.csv.gz",
		"*_%i.csv.gz",
	}
	prev := int(^uint(0) >> 1)
	for _, src := range ladder {
		s := MustCompile(src).Specificity()
		if s > prev {
			t.Fatalf("specificity not decreasing at %q: %d > %d", src, s, prev)
		}
		prev = s
	}
}
