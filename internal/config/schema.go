package config

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"time"

	"bistro/internal/pattern"
)

// The block schema. Every regular statement of the language —
// `keyword value`, `keyword [NAME] { … }` — is declared exactly once,
// as a `cfg` struct tag on the spec field that holds its value, and
// two walkers derive everything else from those tags: statements
// (below) parses a block body against its schema, and schema.format
// renders a spec back, omitting fields that equal their declared
// default. The tag is `cfg:"<keyword>[,<option>]…"`; the field's Go
// type gives the value's form (time.Duration: duration, integers: int,
// float64: number, string: quoted string, bool: on|off,
// *pattern.Pattern: quoted filename pattern, struct or *struct: a
// nested block, a slice of any of these: a repeatable statement), and
// the options refine it:
//
//	name             the field holds the block's NAME (empty keyword);
//	                 with `quoted`, NAME is written as a "string"
//	ident, path      a string written bare: IDENT, or IDENT(/IDENT)*
//	enum=a|b|c       one of the listed identifiers; an integer field
//	                 stores the index, a string field the word
//	min=N, pos       bounds: value >= N, duration > 0
//	default=V        the value when the statement is absent
//	explicit         Format writes the field even at its default
//	need=<message>   the statement is required; the error reads
//	                 "<block> <message>"
//	noun=<words>     what errors call a nested block (default: keyword)
//	sorted           Format writes a repeated value in sorted order
//	invert           the bool field stores the negation of on|off
//	set=<Field>      sibling bool recording that the statement was written
//	merge            a second block adds to the first instead of erroring
//	hook             positional grammar, hand-written: parser.hook / formatHook
//
// A keyword `outer.inner` declares `outer { inner value }`: a nested
// block whose fields live in the enclosing struct. A spec type may add
// a `check() error` method for rules spanning several fields; it runs
// when the block closes.
type schema struct {
	typ    reflect.Type
	fields []*field // declaration order, which is Format's order
	byKw   map[string]*field
	name   *field // the NAME field, for a named block
}

type kind int

const (
	kDuration kind = iota
	kInt
	kFloat
	kString
	kIdent
	kPath
	kEnum
	kOnOff
	kPattern
	kBlock  // [NAME] { … } held in its own struct
	kInline // { … } whose fields live in the enclosing struct
	kHook
)

type field struct {
	kw     string
	index  int // of the struct field (unused for kInline)
	kind   kind
	repeat bool          // slice or map field: the statement may be given many times
	ptr    bool          // kBlock held as *T or []*T
	def    reflect.Value // declared default; the zero value when the tag has none
	enum   []string
	min    int // lower bound; 0 is none, for the lexer has no sign
	set    int // index of the `set=` sibling, or -1
	need   string
	noun   string
	sub    *schema // kBlock, kInline

	pos, sorted, invert, explicit, merge bool
}

// checker is implemented by spec types with cross-field rules.
type checker interface{ check() error }

var (
	patternType  = reflect.TypeOf((*pattern.Pattern)(nil))
	configSchema = schemaOf(reflect.TypeOf(Config{}))
	feedSchema   = schemaOf(reflect.TypeOf(Feed{}))
)

// schemaOf reads a spec type's cfg tags. A malformed tag is a bug in
// this package, so it panics (at package initialisation).
func schemaOf(t reflect.Type) *schema {
	s := &schema{typ: t, byKw: make(map[string]*field)}
	for i := 0; i < t.NumField(); i++ {
		tag, ok := t.Field(i).Tag.Lookup("cfg")
		if !ok {
			continue
		}
		opts := strings.Split(tag, ",")
		f := &field{kw: opts[0], index: i, set: -1}
		ft := t.Field(i).Type
		if ft.Kind() == reflect.Slice || ft.Kind() == reflect.Map {
			f.repeat, ft = true, ft.Elem()
		}
		if ft.Kind() == reflect.Ptr && ft != patternType {
			f.ptr, ft = true, ft.Elem()
		}
		switch {
		case ft == reflect.TypeOf(time.Duration(0)):
			f.kind = kDuration
		case ft == patternType:
			f.kind = kPattern
		case ft.Kind() == reflect.Struct:
			f.kind, f.noun = kBlock, f.kw
		case ft.Kind() == reflect.Bool:
			f.kind = kOnOff
		case ft.Kind() == reflect.Float64:
			f.kind = kFloat
		case ft.Kind() == reflect.String:
			f.kind = kString
		default:
			f.kind = kInt
		}
		f.def = reflect.Zero(ft)
		def := ""
		// Options by what they set: a kind (none maps to kDuration, the
		// zero kind, so a miss reads as 0), a flag, or a text.
		kinds := map[string]kind{"name": kIdent, "quoted": kString, "ident": kIdent, "path": kPath, "enum": kEnum, "hook": kHook}
		flags := map[string]*bool{"pos": &f.pos, "explicit": &f.explicit, "sorted": &f.sorted, "invert": &f.invert, "merge": &f.merge}
		texts := map[string]*string{"default": &def, "need": &f.need, "noun": &f.noun}
		for _, o := range opts[1:] {
			k, v, _ := strings.Cut(o, "=")
			switch {
			case kinds[k] != 0:
				f.kind = kinds[k]
				if k == "name" {
					s.name = f
				} else if k == "enum" {
					f.enum = strings.Split(v, "|")
				}
			case flags[k] != nil:
				*flags[k] = true
			case texts[k] != nil:
				*texts[k] = v
			case k == "min":
				f.min, _ = strconv.Atoi(v)
			case k == "set":
				sib, _ := t.FieldByName(v)
				f.set = sib.Index[0]
			default:
				panic("config: bad cfg tag " + tag)
			}
		}
		if f.kind == kBlock {
			f.sub = schemaOf(ft)
		}
		if def != "" {
			// A default is written as the statement's value would be.
			if f.kind == kString {
				def = quote(def)
			}
			p := &parser{lex: newLexer(def)}
			err := p.advance()
			if err == nil {
				f.def, err = p.scalar(f, site{})
			}
			if err != nil {
				panic("config: bad cfg tag " + tag + ": " + err.Error())
			}
		}
		if s.name == f {
			continue
		}
		if outer, inner, ok := strings.Cut(f.kw, "."); ok {
			in := s.byKw[outer]
			if in == nil {
				in = &field{kw: outer, kind: kInline, set: -1, sub: &schema{typ: t, byKw: make(map[string]*field)}}
				s.add(in)
			}
			f.kw = inner
			in.sub.add(f)
			continue
		}
		s.add(f)
	}
	return s
}

func (s *schema) add(f *field) {
	s.fields = append(s.fields, f)
	s.byKw[f.kw] = f
}

// site names the block being parsed in error messages, and carries the
// line of its opening keyword: errors found once the block has closed
// (a missing required statement, a check failure) are reported there.
type site struct {
	noun string // "ingest", "cluster node"; "" at the top level
	name string // NAME as written (quoted if the language quotes it); "" if unnamed
	line int
}

func (s site) String() string {
	if s.name == "" {
		return s.noun + " block"
	}
	return s.noun + " " + s.name
}

// prefix is the "<block>: " lead of errors raised inside the block.
func (s site) prefix() string {
	if s.noun == "" {
		return ""
	}
	return s.String() + ": "
}

// body parses `{ statement* }` into the struct v.
func (p *parser) body(s *schema, v reflect.Value, at site) error {
	if _, err := p.expect(tokLBrace); err != nil {
		return err
	}
	if err := p.statements(s, v, at, tokRBrace); err != nil {
		return err
	}
	return p.advance() // consume '}'
}

// statements is the parse walker: it reads `keyword value` statements
// into the struct v, against v's schema, until the end token (which it
// leaves unconsumed), then runs the block's closing checks. A
// statement that is not repeatable is an error the second time.
func (p *parser) statements(s *schema, v reflect.Value, at site, end tokKind) error {
	for _, f := range s.fields {
		if f.kind < kBlock && !f.repeat {
			v.Field(f.index).Set(f.def)
		}
	}
	seen := make(map[*field]bool)
	for p.tok.kind != end {
		kw, err := p.expect(tokIdent)
		if err != nil {
			return err
		}
		f := s.byKw[kw]
		if f == nil {
			return p.errPrevf("unknown %s %q", strings.TrimSpace(at.noun+" statement"), kw)
		}
		if seen[f] && !f.repeat && !f.merge {
			what := "statement"
			if p.tok.kind == tokLBrace {
				what = "block"
			}
			return p.errPrevf("%sduplicate %s %s", at.prefix(), kw, what)
		}
		seen[f] = true
		line := p.prevLine
		switch f.kind {
		case kHook:
			err = p.hook(kw, v.Addr().Interface(), line)
		case kInline:
			err = p.body(f.sub, v, site{noun: at.noun + " " + kw, line: line})
		case kBlock:
			err = p.block(f, v.Field(f.index), line)
		default:
			var val reflect.Value
			if val, err = p.scalar(f, at); err != nil {
				return err
			}
			if fv := v.Field(f.index); f.repeat {
				fv.Set(reflect.Append(fv, val))
			} else {
				fv.Set(val)
			}
			if f.set >= 0 {
				v.Field(f.set).SetBool(true)
			}
		}
		if err != nil {
			return err
		}
	}
	for _, f := range s.fields {
		if f.need != "" && v.Field(f.index).IsZero() {
			return errAt(at.line, "%s %s", at, f.need)
		}
	}
	if c, ok := v.Addr().Interface().(checker); ok {
		if err := c.check(); err != nil {
			return errAt(at.line, "%v", err)
		}
	}
	return nil
}

// block parses `[NAME] { … }` into a new struct and stores it in fv:
// appended to a slice, merged into or set as the singleton.
func (p *parser) block(f *field, fv reflect.Value, line int) error {
	nv := reflect.New(f.sub.typ).Elem()
	at := site{noun: f.noun, line: line}
	if nf := f.sub.name; nf != nil {
		kind := tokIdent
		if nf.kind == kString {
			kind = tokString
		}
		name, err := p.expect(kind)
		if err != nil {
			return err
		}
		nv.Field(nf.index).SetString(name)
		if at.name = name; nf.kind == kString {
			at.name = strconv.Quote(name)
		}
	}
	if err := p.body(f.sub, nv, at); err != nil {
		return err
	}
	elem := nv
	if f.ptr {
		elem = nv.Addr()
	}
	switch {
	case f.repeat:
		fv.Set(reflect.Append(fv, elem))
	case f.merge && !fv.IsNil():
		for i := 0; i < nv.NumField(); i++ {
			if dst := fv.Elem().Field(i); dst.Kind() == reflect.Slice {
				dst.Set(reflect.AppendSlice(dst, nv.Field(i)))
			}
		}
	default:
		fv.Set(elem)
	}
	return nil
}

// scalar parses one value of field f's kind and checks its bounds.
func (p *parser) scalar(f *field, at site) (reflect.Value, error) {
	out := reflect.New(f.def.Type()).Elem()
	var err error
	switch f.kind {
	case kDuration:
		var d time.Duration
		if d, err = p.duration(); err == nil && f.pos && d <= 0 {
			err = p.errPrevf("%s %s must be > 0", at.noun, f.kw)
		}
		out.SetInt(int64(d))
	case kInt:
		var n int
		if n, err = p.integer(); err == nil && n < f.min {
			err = p.errPrevf("%s %s must be >= %d", at.noun, f.kw, f.min)
		}
		out.SetInt(int64(n))
	case kFloat:
		var text string
		if text, err = p.expect(tokNumber); err == nil {
			x, perr := strconv.ParseFloat(text, 64)
			if perr != nil || x < float64(f.min) {
				err = p.errPrevf("%s %s must be a number >= %d, got %q", at.noun, f.kw, f.min, text)
			}
			out.SetFloat(x)
		}
	case kString:
		var text string
		if text, err = p.expect(tokString); text == "" { // an empty string is "unset"
			text = f.def.String()
		}
		out.SetString(text)
	case kPattern:
		var text string
		if text, err = p.expect(tokString); err == nil {
			pat, perr := pattern.Compile(text)
			if perr != nil {
				err = p.errPrevf("%s%s: %v", at.prefix(), f.kw, perr)
			}
			out.Set(reflect.ValueOf(pat))
		}
	case kIdent:
		var text string
		text, err = p.expect(tokIdent)
		out.SetString(text)
	case kPath:
		var text string
		text, err = p.path()
		out.SetString(text)
	case kEnum:
		var word string
		if word, err = p.expect(tokIdent); err != nil {
			break
		}
		i := 0
		for i < len(f.enum) && f.enum[i] != word {
			i++
		}
		if i == len(f.enum) {
			err = p.errPrevf("%sunknown %s %q", at.prefix(), f.kw, word)
		} else if out.Kind() == reflect.String {
			out.SetString(word)
		} else {
			out.SetInt(int64(i))
		}
	case kOnOff:
		var word string
		if word, err = p.expect(tokIdent); err == nil && word != "on" && word != "off" {
			err = p.errPrevf("%s takes on or off, got %q", f.kw, word)
		}
		out.SetBool((word == "on") != f.invert)
	}
	return out, err
}

// format is the Format walker: it renders the struct v's statements in
// schema order. top marks the document level, where a blank line
// follows the leading scalar statements and every block.
func (s *schema) format(b *strings.Builder, v reflect.Value, ind string, top bool) {
	for i, f := range s.fields {
		if top && f.kind >= kBlock && b.Len() > 0 && i > 0 && s.fields[i-1].kind < kBlock {
			b.WriteString("\n")
		}
		switch f.kind {
		case kHook:
			formatHook(b, f.kw, v.Addr().Interface(), ind)
		case kInline:
			var inner strings.Builder
			f.sub.format(&inner, v, ind+"    ", false)
			if inner.Len() > 0 {
				fmt.Fprintf(b, "%s%s {\n%s%s}\n", ind, f.kw, inner.String(), ind)
			}
		case kBlock:
			f.each(v.Field(f.index), func(ev reflect.Value) {
				if f.ptr {
					ev = ev.Elem()
				}
				head := f.kw
				if nf := f.sub.name; nf != nil {
					head += " " + nf.render(ev.Field(nf.index))
				}
				fmt.Fprintf(b, "%s%s {\n", ind, head)
				f.sub.format(b, ev, ind+"    ", false)
				fmt.Fprintf(b, "%s}\n", ind)
				if top {
					b.WriteString("\n")
				}
			})
		default:
			var vals []string
			f.each(v.Field(f.index), func(ev reflect.Value) {
				if f.repeat || !f.elided(ev, v) {
					vals = append(vals, f.render(ev))
				}
			})
			if f.sorted {
				sort.Strings(vals)
			}
			for _, val := range vals {
				fmt.Fprintf(b, "%s%s %s\n", ind, f.kw, val)
			}
		}
	}
}

// each visits the field's values: the elements of a repeated field, or
// the one value of a single field (skipping a nil block).
func (f *field) each(fv reflect.Value, visit func(reflect.Value)) {
	switch {
	case f.repeat:
		for i := 0; i < fv.Len(); i++ {
			visit(fv.Index(i))
		}
	case !f.ptr || !fv.IsNil():
		visit(fv)
	}
}

// elided reports whether Format leaves the statement out: its value is
// the declared default (so re-parsing restores it), or is an empty
// string, which every string-valued statement reads as "unset".
func (f *field) elided(v, owner reflect.Value) bool {
	if f.set >= 0 {
		return !owner.Field(f.set).Bool()
	}
	if f.explicit {
		return false
	}
	return v.Interface() == f.def.Interface() || v.Kind() == reflect.String && v.Len() == 0
}

// render writes one value the way scalar reads it.
func (f *field) render(v reflect.Value) string {
	switch f.kind {
	case kDuration:
		return formatDuration(time.Duration(v.Int()))
	case kInt:
		return strconv.FormatInt(v.Int(), 10)
	case kFloat:
		return strconv.FormatFloat(v.Float(), 'f', -1, 64) // no exponent: the lexer has none
	case kPattern:
		return quote(v.Interface().(*pattern.Pattern).String())
	case kString:
		return quote(v.String())
	case kOnOff:
		if v.Bool() != f.invert {
			return "on"
		}
		return "off"
	}
	return fmt.Sprint(v.Interface()) // bare word; integer enums have String methods
}
