// Package pattern implements Bistro's printf-inspired feed filename
// pattern language (SIGMOD'11 §3.1).
//
// A pattern is a sequence of literal characters, conversions, and glob
// wildcards. The language deliberately trades the power of full regular
// expressions for readability and — crucially — field semantics: a
// conversion says not just "digits go here" but "this is the month of
// the measurement interval", which is what drives filename
// normalization and batch detection downstream.
//
// Supported conversions:
//
//	%s   arbitrary non-empty string not containing '/'
//	%i   decimal integer (one or more digits)
//	%Y   4-digit year        %y   2-digit year
//	%m   2-digit month       %d   2-digit day of month
//	%H   2-digit hour        %M   2-digit minute
//	%S   2-digit second
//	%%   literal percent sign
//	*    glob wildcard: any run of characters (possibly empty) not
//	     containing '/'
//
// Patterns may contain '/' literals to describe hierarchical feed
// organization, e.g. %Y/%m/%d/poller%i.csv.gz.
package pattern

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
)

// Kind identifies a pattern segment type.
type Kind int

// Segment kinds.
const (
	KLiteral Kind = iota // literal text
	KString              // %s: non-empty string without '/'
	KInt                 // %i: decimal integer
	KYear                // %Y: 4-digit year
	KYear2               // %y: 2-digit year
	KMonth               // %m
	KDay                 // %d
	KHour                // %H
	KMinute              // %M
	KSecond              // %S
	KWild                // *: possibly-empty string without '/'
)

func (k Kind) String() string {
	switch k {
	case KLiteral:
		return "literal"
	case KString:
		return "%s"
	case KInt:
		return "%i"
	case KYear:
		return "%Y"
	case KYear2:
		return "%y"
	case KMonth:
		return "%m"
	case KDay:
		return "%d"
	case KHour:
		return "%H"
	case KMinute:
		return "%M"
	case KSecond:
		return "%S"
	case KWild:
		return "*"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// width returns the fixed match width of a kind, or 0 if variable.
func (k Kind) width() int {
	switch k {
	case KYear:
		return 4
	case KYear2, KMonth, KDay, KHour, KMinute, KSecond:
		return 2
	default:
		return 0
	}
}

// isTime reports whether the kind is a timestamp component.
func (k Kind) isTime() bool {
	switch k {
	case KYear, KYear2, KMonth, KDay, KHour, KMinute, KSecond:
		return true
	}
	return false
}

// Segment is one element of a compiled pattern.
type Segment struct {
	Kind Kind
	Lit  string // literal text when Kind == KLiteral
}

// Pattern is a compiled feed filename pattern.
type Pattern struct {
	src      string
	segs     []Segment
	nStrings int
	nInts    int
	timeKind map[Kind]bool // which time conversions appear
}

// Compile parses src into a Pattern.
func Compile(src string) (*Pattern, error) {
	if src == "" {
		return nil, fmt.Errorf("pattern: empty pattern")
	}
	// Pattern sources are configuration text; rejecting invalid UTF-8
	// here keeps every downstream rendering (Regexp in particular)
	// well-formed. Matched names stay raw bytes.
	if !utf8.ValidString(src) {
		return nil, fmt.Errorf("pattern %q: not valid UTF-8", src)
	}
	p := &Pattern{src: src, timeKind: make(map[Kind]bool)}
	var lit strings.Builder
	flush := func() {
		if lit.Len() > 0 {
			p.segs = append(p.segs, Segment{Kind: KLiteral, Lit: lit.String()})
			lit.Reset()
		}
	}
	for i := 0; i < len(src); i++ {
		c := src[i]
		switch c {
		case '%':
			if i+1 >= len(src) {
				return nil, fmt.Errorf("pattern %q: trailing %%", src)
			}
			i++
			v := src[i]
			if v == '%' {
				lit.WriteByte('%')
				continue
			}
			k, ok := conversion(v)
			if !ok {
				return nil, fmt.Errorf("pattern %q: unknown conversion %%%c", src, v)
			}
			flush()
			p.segs = append(p.segs, Segment{Kind: k})
			switch {
			case k == KString:
				p.nStrings++
			case k == KInt:
				p.nInts++
			case k.isTime():
				if p.timeKind[k] {
					return nil, fmt.Errorf("pattern %q: duplicate time conversion %%%c", src, v)
				}
				p.timeKind[k] = true
			}
		case '*':
			flush()
			p.segs = append(p.segs, Segment{Kind: KWild})
		default:
			lit.WriteByte(c)
		}
	}
	flush()
	if err := p.validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func conversion(c byte) (Kind, bool) {
	switch c {
	case 's':
		return KString, true
	case 'i':
		return KInt, true
	case 'Y':
		return KYear, true
	case 'y':
		return KYear2, true
	case 'm':
		return KMonth, true
	case 'd':
		return KDay, true
	case 'H':
		return KHour, true
	case 'M':
		return KMinute, true
	case 'S':
		return KSecond, true
	}
	return 0, false
}

func (p *Pattern) validate() error {
	// Two adjacent unbounded segments (e.g. %s%s or %s*) are ambiguous:
	// there is no literal anchor between them.
	prevOpen := false
	for _, s := range p.segs {
		open := s.Kind == KString || s.Kind == KWild
		if open && prevOpen {
			return fmt.Errorf("pattern %q: adjacent unbounded conversions are ambiguous", p.src)
		}
		prevOpen = open
	}
	return nil
}

// MustCompile is Compile that panics on error; for tests and constants.
func MustCompile(src string) *Pattern {
	p, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return p
}

// String returns the pattern source text.
func (p *Pattern) String() string { return p.src }

// Segments returns the compiled segments (read-only).
func (p *Pattern) Segments() []Segment { return p.segs }

// NumStrings returns the count of %s conversions.
func (p *Pattern) NumStrings() int { return p.nStrings }

// NumInts returns the count of %i conversions.
func (p *Pattern) NumInts() int { return p.nInts }

// HasTimestamp reports whether the pattern contains any time conversion.
func (p *Pattern) HasTimestamp() bool { return len(p.timeKind) > 0 }

// LiteralPrefix returns the longest literal prefix the pattern requires
// of any matching filename. complete is true when the pattern is all
// literal. The classifier uses this to index patterns.
func (p *Pattern) LiteralPrefix() (prefix string, complete bool) {
	if len(p.segs) == 0 {
		return "", true
	}
	if p.segs[0].Kind != KLiteral {
		return "", false
	}
	return p.segs[0].Lit, len(p.segs) == 1
}

// Specificity scores how constrained the pattern is: literal characters
// count 3, fixed-width time conversions 2, integers 1, %s and * count 0.
// The analyzer prefers higher-specificity definitions when several
// patterns explain the same files.
func (p *Pattern) Specificity() int {
	score := 0
	for _, s := range p.segs {
		switch s.Kind {
		case KLiteral:
			score += 3 * len(s.Lit)
		case KInt:
			score++
		default:
			if s.Kind.isTime() {
				score += 2 * s.Kind.width()
			}
		}
	}
	return score
}

// Fields holds the values extracted from a successful match.
type Fields struct {
	// Strings holds the %s captures in pattern order.
	Strings []string
	// Ints holds the %i captures in pattern order.
	Ints []int64
	// Time holds the timestamp components present in the pattern.
	Time TimeParts
}

// TimeParts collects timestamp components extracted from a filename.
type TimeParts struct {
	Year, Month, Day, Hour, Minute, Second int
	HasYear, HasMonth, HasDay              bool
	HasHour, HasMinute, HasSecond          bool
}

// Valid reports whether the populated components form a plausible
// calendar timestamp (month 1-12, day 1-31, hour 0-23, minute/second
// 0-59). Components that are absent are not checked.
func (tp TimeParts) Valid() bool {
	if tp.HasMonth && (tp.Month < 1 || tp.Month > 12) {
		return false
	}
	if tp.HasDay && (tp.Day < 1 || tp.Day > 31) {
		return false
	}
	if tp.HasHour && tp.Hour > 23 {
		return false
	}
	if tp.HasMinute && tp.Minute > 59 {
		return false
	}
	if tp.HasSecond && tp.Second > 59 {
		return false
	}
	return true
}

// Timestamp assembles the components into a time.Time in loc. Missing
// low-order components default to their minimum (Jan, 1st, 00:00:00).
// ok is false when no time component at all was present.
func (tp TimeParts) Timestamp(loc *time.Location) (t time.Time, ok bool) {
	if !tp.HasYear && !tp.HasMonth && !tp.HasDay && !tp.HasHour && !tp.HasMinute && !tp.HasSecond {
		return time.Time{}, false
	}
	year := tp.Year
	if !tp.HasYear {
		year = 1970
	}
	month := time.January
	if tp.HasMonth {
		month = time.Month(tp.Month)
	}
	day := 1
	if tp.HasDay {
		day = tp.Day
	}
	return time.Date(year, month, day, tp.Hour, tp.Minute, tp.Second, 0, loc), true
}

// Granularity returns the finest time unit present in the parts, or 0
// if none: one of time.Second, time.Minute, time.Hour, 24h (day),
// 30*24h (month, approximate), 365*24h (year, approximate).
func (tp TimeParts) Granularity() time.Duration {
	switch {
	case tp.HasSecond:
		return time.Second
	case tp.HasMinute:
		return time.Minute
	case tp.HasHour:
		return time.Hour
	case tp.HasDay:
		return 24 * time.Hour
	case tp.HasMonth:
		return 30 * 24 * time.Hour
	case tp.HasYear:
		return 365 * 24 * time.Hour
	}
	return 0
}

// Match reports whether name matches the pattern and, if so, returns
// the extracted fields. Matching backtracks over variable-width
// conversions; a filename must match in its entirety. A name that does
// not match costs no allocation: captures accumulate on the stack and
// are copied into a Fields only on success.
func (p *Pattern) Match(name string) (*Fields, bool) {
	var c captures
	if !p.matchInto(name, &c) {
		return nil, false
	}
	f := &Fields{Time: c.time}
	if c.nStrs > 0 {
		f.Strings = make([]string, c.nStrs)
		copy(f.Strings[copy(f.Strings, c.strs[:]):], c.moreStrs)
	}
	if c.nInts > 0 {
		f.Ints = make([]int64, c.nInts)
		copy(f.Ints[copy(f.Ints, c.ints[:]):], c.moreInts)
	}
	return f, true
}

// inlineCaptures is how many %s and how many %i captures a match holds
// in fixed arrays; only a pattern with more spills to the heap.
const inlineCaptures = 8

// captures is the match in progress. It holds arrays and counts, not
// slices of the arrays, so that a pointer to it can be passed down the
// recursion without forcing it off the caller's stack.
type captures struct {
	time         TimeParts
	nStrs, nInts int
	strs         [inlineCaptures]string
	ints         [inlineCaptures]int64
	moreStrs     []string // captures past inlineCaptures
	moreInts     []int64
}

func (c *captures) pushStr(s string) {
	if c.nStrs < inlineCaptures {
		c.strs[c.nStrs] = s
	} else {
		c.moreStrs = append(c.moreStrs, s)
	}
	c.nStrs++
}

func (c *captures) popStr() {
	c.nStrs--
	if c.nStrs >= inlineCaptures {
		c.moreStrs = c.moreStrs[:c.nStrs-inlineCaptures]
	}
}

func (c *captures) pushInt(v int64) {
	if c.nInts < inlineCaptures {
		c.ints[c.nInts] = v
	} else {
		c.moreInts = append(c.moreInts, v)
	}
	c.nInts++
}

func (c *captures) popInt() {
	c.nInts--
	if c.nInts >= inlineCaptures {
		c.moreInts = c.moreInts[:c.nInts-inlineCaptures]
	}
}

// matchInto runs the whole match, captures going to c.
func (p *Pattern) matchInto(name string, c *captures) bool {
	st := matchState{budget: 4 * (len(name) + 1) * (len(p.segs) + 1)}
	return p.match(name, 0, 0, c, &st) && c.time.Valid()
}

// matchState bounds backtracking. Patterns like %i%i%i or repeated
// %s_ groups are legal (they have anchors or bounded runs) but
// backtrack exponentially on adversarial names; once a match exceeds
// its call budget, failed (position, segment) states are memoized so
// the search degrades to polynomial instead. The budget keeps the
// common non-backtracking match allocation-free.
type matchState struct {
	calls  int
	budget int
	failed map[int32]struct{}
}

// Matches is Match without field extraction cost for callers that only
// need the boolean; it does not allocate.
func (p *Pattern) Matches(name string) bool {
	var c captures
	return p.matchInto(name, &c)
}

// match attempts to match name[pos:] against segs[si:], pushing
// captures onto c. On backtrack it pops the captures it added.
// Whether (pos, si) can match is independent of the captures taken so
// far, so failed states can be memoized once backtracking blows the
// call budget.
func (p *Pattern) match(name string, pos, si int, c *captures, st *matchState) bool {
	st.calls++
	if st.calls <= st.budget {
		return p.matchSeg(name, pos, si, c, st)
	}
	key := int32(pos*(len(p.segs)+1) + si)
	if st.failed == nil {
		st.failed = make(map[int32]struct{})
	} else if _, ok := st.failed[key]; ok {
		return false
	}
	ok := p.matchSeg(name, pos, si, c, st)
	if !ok {
		st.failed[key] = struct{}{}
	}
	return ok
}

func (p *Pattern) matchSeg(name string, pos, si int, c *captures, st *matchState) bool {
	if si == len(p.segs) {
		return pos == len(name)
	}
	seg := p.segs[si]
	switch seg.Kind {
	case KLiteral:
		if !strings.HasPrefix(name[pos:], seg.Lit) {
			return false
		}
		return p.match(name, pos+len(seg.Lit), si+1, c, st)

	case KString, KWild:
		min := 1
		if seg.Kind == KWild {
			min = 0
		}
		// Greedy with backtracking: the capture may not contain '/'.
		limit := len(name)
		if idx := strings.IndexByte(name[pos:], '/'); idx >= 0 {
			limit = pos + idx
		}
		for end := limit; end >= pos+min; end-- {
			if seg.Kind == KString {
				c.pushStr(name[pos:end])
			}
			if p.match(name, end, si+1, c, st) {
				return true
			}
			if seg.Kind == KString {
				c.popStr()
			}
		}
		return false

	case KInt:
		// Greedy run of digits with backtracking.
		end := pos
		for end < len(name) && isDigit(name[end]) {
			end++
		}
		for ; end > pos; end-- {
			v, err := strconv.ParseInt(name[pos:end], 10, 64)
			if err != nil {
				continue
			}
			c.pushInt(v)
			if p.match(name, end, si+1, c, st) {
				return true
			}
			c.popInt()
		}
		return false

	default: // fixed-width time conversions
		w := seg.Kind.width()
		if pos+w > len(name) {
			return false
		}
		for i := pos; i < pos+w; i++ {
			if !isDigit(name[i]) {
				return false
			}
		}
		v, _ := strconv.Atoi(name[pos : pos+w])
		saved := c.time
		setTimePart(&c.time, seg.Kind, v)
		if p.match(name, pos+w, si+1, c, st) {
			return true
		}
		c.time = saved
		return false
	}
}

func setTimePart(tp *TimeParts, k Kind, v int) {
	switch k {
	case KYear:
		tp.Year, tp.HasYear = v, true
	case KYear2:
		// Pivot 2-digit years the way strptime does: 69-99 → 19xx.
		if v >= 69 {
			tp.Year = 1900 + v
		} else {
			tp.Year = 2000 + v
		}
		tp.HasYear = true
	case KMonth:
		tp.Month, tp.HasMonth = v, true
	case KDay:
		tp.Day, tp.HasDay = v, true
	case KHour:
		tp.Hour, tp.HasHour = v, true
	case KMinute:
		tp.Minute, tp.HasMinute = v, true
	case KSecond:
		tp.Second, tp.HasSecond = v, true
	}
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Render produces a concrete filename from the pattern and a set of
// fields, consuming %s and %i captures positionally. It is the inverse
// of Match and is used by the normalizer to rewrite filenames into a
// subscriber's preferred layout. Wildcard segments render as the empty
// string. An error is returned when f lacks a needed capture or time
// component.
func (p *Pattern) Render(f *Fields) (string, error) {
	var b strings.Builder
	si, ii := 0, 0
	for _, seg := range p.segs {
		switch seg.Kind {
		case KLiteral:
			b.WriteString(seg.Lit)
		case KWild:
			// renders empty
		case KString:
			if si >= len(f.Strings) {
				return "", fmt.Errorf("pattern %q: render needs %d string fields, have %d", p.src, si+1, len(f.Strings))
			}
			b.WriteString(f.Strings[si])
			si++
		case KInt:
			if ii >= len(f.Ints) {
				return "", fmt.Errorf("pattern %q: render needs %d int fields, have %d", p.src, ii+1, len(f.Ints))
			}
			b.WriteString(strconv.FormatInt(f.Ints[ii], 10))
			ii++
		default:
			s, err := renderTime(seg.Kind, f.Time)
			if err != nil {
				return "", fmt.Errorf("pattern %q: %w", p.src, err)
			}
			b.WriteString(s)
		}
	}
	return b.String(), nil
}

func renderTime(k Kind, tp TimeParts) (string, error) {
	switch k {
	case KYear:
		if !tp.HasYear {
			return "", fmt.Errorf("render: missing year")
		}
		return fmt.Sprintf("%04d", tp.Year), nil
	case KYear2:
		if !tp.HasYear {
			return "", fmt.Errorf("render: missing year")
		}
		return fmt.Sprintf("%02d", tp.Year%100), nil
	case KMonth:
		if !tp.HasMonth {
			return "", fmt.Errorf("render: missing month")
		}
		return fmt.Sprintf("%02d", tp.Month), nil
	case KDay:
		if !tp.HasDay {
			return "", fmt.Errorf("render: missing day")
		}
		return fmt.Sprintf("%02d", tp.Day), nil
	case KHour:
		if !tp.HasHour {
			return "", fmt.Errorf("render: missing hour")
		}
		return fmt.Sprintf("%02d", tp.Hour), nil
	case KMinute:
		if !tp.HasMinute {
			return "", fmt.Errorf("render: missing minute")
		}
		return fmt.Sprintf("%02d", tp.Minute), nil
	case KSecond:
		if !tp.HasSecond {
			return "", fmt.Errorf("render: missing second")
		}
		return fmt.Sprintf("%02d", tp.Second), nil
	}
	return "", fmt.Errorf("render: %v is not a time conversion", k)
}

// Regexp returns an anchored regular expression equivalent to the
// pattern, for interoperability with regex-based tooling.
func (p *Pattern) Regexp() string {
	var b strings.Builder
	b.WriteString("^")
	for _, seg := range p.segs {
		switch seg.Kind {
		case KLiteral:
			b.WriteString(regexp.QuoteMeta(seg.Lit))
		case KString:
			b.WriteString(`([^/]+)`)
		case KWild:
			b.WriteString(`([^/]*)`)
		case KInt:
			b.WriteString(`([0-9]+)`)
		case KYear:
			b.WriteString(`([0-9]{4})`)
		default:
			b.WriteString(`([0-9]{2})`)
		}
	}
	b.WriteString("$")
	return b.String()
}
