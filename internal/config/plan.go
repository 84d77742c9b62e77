package config

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Plan operator kinds. A feed's plan {} block declares a chain of
// typed operators the ingest workers run in place of the fixed
// classify→normalize path (INGESTBASE-style declarative ingestion).
// The chain has a byte stage (decompress, split) followed by an
// optional record stage (parse, then validate/extract/enrich/route in
// written order). Feeds without a plan keep the implicit default
// plan: the historical rename+(de)compress path, byte for byte.
type PlanOpKind int

const (
	// OpDecompress decodes the input stream (gzip or bzip2) before any
	// other operator sees it.
	OpDecompress PlanOpKind = iota
	// OpSplit tees the whole byte stream (as of its position in the
	// chain) into a derived feed.
	OpSplit
	// OpParse frames the stream into records: lines, csv, or json
	// (newline-delimited objects).
	OpParse
	// OpValidate rejects records violating its rules to the plan
	// quarantine file.
	OpValidate
	// OpExtract pulls a record field into the named-field namespace
	// (the first record's values also join the file's pattern.Fields
	// strings, so normalize templates can consume them).
	OpExtract
	// OpEnrich joins records against a cached side table keyed by an
	// extracted field, at ingest or deferred to delivery.
	OpEnrich
	// OpRoute sends records whose field matches a case into derived
	// feeds; unmatched records follow default, or stay in the primary.
	OpRoute
)

func (k PlanOpKind) String() string {
	switch k {
	case OpDecompress:
		return "decompress"
	case OpSplit:
		return "split"
	case OpParse:
		return "parse"
	case OpValidate:
		return "validate"
	case OpExtract:
		return "extract"
	case OpEnrich:
		return "enrich"
	case OpRoute:
		return "route"
	}
	return "unknown"
}

// PlanRule is one validate rule.
type PlanRule struct {
	// Kind is "columns", "utf8", "require", or "numeric".
	Kind string
	// Count is the exact column count for "columns".
	Count int
	// Field names the extracted field for "require"/"numeric".
	Field string
}

// PlanRouteCase maps one field value to a derived feed.
type PlanRouteCase struct {
	Value  string
	Target string
}

// PlanOp is one operator in a plan chain. Only the fields its Kind
// reads are set.
type PlanOp struct {
	Kind PlanOpKind
	// Codec is the decompress codec: "gzip" or "bzip2".
	Codec string
	// Framing is the parse framing: "lines", "csv", or "json".
	Framing string
	// Rules are the validate rules.
	Rules []PlanRule
	// Field is the extract name, the enrich join key, or the route
	// field.
	Field string
	// Column is the 1-based source column for extract over lines/csv
	// framing (0 when Key is set).
	Column int
	// Key is the source object key for extract over json framing.
	Key string
	// Table is the enrich side-table path (CSV: key column first,
	// appended values after), resolved relative to the server base dir.
	Table string
	// AtDelivery defers the enrich join to the delivery engine instead
	// of running it inside the ingest workers.
	AtDelivery bool
	// Target is the split derived feed, or the route default ("" =
	// unmatched records stay in the primary output).
	Target string
	// Cases are the route cases, in written order.
	Cases []PlanRouteCase
}

// PlanSpec is a feed's plan {} block: the operator chain in written
// order. Validation (operator wiring, derived-feed existence, cycle
// detection) happens at resolve time so Parse rejects broken plans.
type PlanSpec struct {
	Ops []PlanOp
}

// Targets returns the derived feeds this plan writes into (split
// targets, route cases, route defaults), deduplicated and sorted.
func (ps *PlanSpec) Targets() []string {
	set := make(map[string]bool)
	for _, op := range ps.Ops {
		switch op.Kind {
		case OpSplit:
			set[op.Target] = true
		case OpRoute:
			for _, c := range op.Cases {
				set[c.Target] = true
			}
			if op.Target != "" {
				set[op.Target] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// planSpec parses a plan { ... } block. Structural rules (operator
// ordering, field wiring, target existence) are checked in
// resolvePlans, not here, so error messages can see the whole config.
func (p *parser) planSpec(feedPath string) (*PlanSpec, error) {
	line := p.prevLine // of the plan keyword: where a whole-block error is reported
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	spec := &PlanSpec{}
	for p.tok.kind != tokRBrace {
		kw, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		var op PlanOp
		switch kw {
		case "decompress":
			op.Kind = OpDecompress
			codec, err := p.expect(tokIdent)
			if err != nil {
				return nil, err
			}
			if codec != "gzip" && codec != "bzip2" {
				return nil, p.errPrevf("feed %s plan: unknown decompress codec %q", feedPath, codec)
			}
			op.Codec = codec
		case "split":
			op.Kind = OpSplit
			if op.Target, err = p.path(); err != nil {
				return nil, err
			}
		case "parse":
			op.Kind = OpParse
			framing, err := p.expect(tokIdent)
			if err != nil {
				return nil, err
			}
			if framing != "lines" && framing != "csv" && framing != "json" {
				return nil, p.errPrevf("feed %s plan: unknown parse framing %q", feedPath, framing)
			}
			op.Framing = framing
		case "validate":
			op.Kind = OpValidate
			if op.Rules, err = p.planRules(feedPath); err != nil {
				return nil, err
			}
		case "extract":
			op.Kind = OpExtract
			if op.Field, err = p.expect(tokIdent); err != nil {
				return nil, err
			}
			switch p.tok.kind {
			case tokNumber:
				if op.Column, err = p.integer(); err != nil {
					return nil, err
				}
				if op.Column < 1 {
					return nil, p.errPrevf("feed %s plan: extract %s: column must be >= 1", feedPath, op.Field)
				}
			case tokString:
				if op.Key, err = p.expect(tokString); err != nil {
					return nil, err
				}
			default:
				return nil, p.errf("feed %s plan: extract %s: expected a column number or json key string", feedPath, op.Field)
			}
		case "enrich":
			op.Kind = OpEnrich
			if err := p.planEnrich(feedPath, &op); err != nil {
				return nil, err
			}
		case "route":
			op.Kind = OpRoute
			if err := p.planRoute(feedPath, &op); err != nil {
				return nil, err
			}
		default:
			return nil, p.errPrevf("feed %s plan: unknown operator %q", feedPath, kw)
		}
		spec.Ops = append(spec.Ops, op)
	}
	if err := p.advance(); err != nil { // consume '}'
		return nil, err
	}
	if len(spec.Ops) == 0 {
		return nil, errAt(line, "feed %s plan: empty plan block", feedPath)
	}
	return spec, nil
}

// planRules parses a validate { ... } rule block.
func (p *parser) planRules(feedPath string) ([]PlanRule, error) {
	line := p.prevLine
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	var rules []PlanRule
	for p.tok.kind != tokRBrace {
		kw, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		var r PlanRule
		r.Kind = kw
		switch kw {
		case "columns":
			if r.Count, err = p.integer(); err != nil {
				return nil, err
			}
			if r.Count < 1 {
				return nil, p.errPrevf("feed %s plan: validate columns must be >= 1", feedPath)
			}
		case "utf8":
			// No operand.
		case "require", "numeric":
			if r.Field, err = p.expect(tokIdent); err != nil {
				return nil, err
			}
		default:
			return nil, p.errPrevf("feed %s plan: unknown validate rule %q", feedPath, kw)
		}
		rules = append(rules, r)
	}
	if err := p.advance(); err != nil { // consume '}'
		return nil, err
	}
	if len(rules) == 0 {
		return nil, errAt(line, "feed %s plan: empty validate block", feedPath)
	}
	return rules, nil
}

// planEnrich parses an enrich { table "..." key FIELD [at ...] }
// block.
func (p *parser) planEnrich(feedPath string, op *PlanOp) error {
	line := p.prevLine
	if _, err := p.expect(tokLBrace); err != nil {
		return err
	}
	for p.tok.kind != tokRBrace {
		kw, err := p.expect(tokIdent)
		if err != nil {
			return err
		}
		switch kw {
		case "table":
			if op.Table, err = p.expect(tokString); err != nil {
				return err
			}
		case "key":
			if op.Field, err = p.expect(tokIdent); err != nil {
				return err
			}
		case "at":
			where, err := p.expect(tokIdent)
			if err != nil {
				return err
			}
			switch where {
			case "ingest":
				op.AtDelivery = false
			case "delivery":
				op.AtDelivery = true
			default:
				return p.errPrevf("feed %s plan: enrich at must be ingest or delivery, got %q", feedPath, where)
			}
		default:
			return p.errPrevf("feed %s plan: unknown enrich statement %q", feedPath, kw)
		}
	}
	if err := p.advance(); err != nil { // consume '}'
		return err
	}
	if op.Table == "" {
		return errAt(line, "feed %s plan: enrich needs a table", feedPath)
	}
	if op.Field == "" {
		return errAt(line, "feed %s plan: enrich needs a key field", feedPath)
	}
	return nil
}

// planRoute parses: FIELD { "value" TARGET ... [default TARGET] }
func (p *parser) planRoute(feedPath string, op *PlanOp) error {
	line := p.prevLine
	var err error
	if op.Field, err = p.expect(tokIdent); err != nil {
		return err
	}
	if _, err := p.expect(tokLBrace); err != nil {
		return err
	}
	seen := make(map[string]bool)
	for p.tok.kind != tokRBrace {
		switch p.tok.kind {
		case tokString:
			val, err := p.expect(tokString)
			if err != nil {
				return err
			}
			if seen[val] {
				return p.errPrevf("feed %s plan: route %s: duplicate case %q", feedPath, op.Field, val)
			}
			seen[val] = true
			target, err := p.path()
			if err != nil {
				return err
			}
			op.Cases = append(op.Cases, PlanRouteCase{Value: val, Target: target})
		case tokIdent:
			kw, err := p.expect(tokIdent)
			if err != nil {
				return err
			}
			if kw != "default" {
				return p.errPrevf("feed %s plan: route %s: expected a case string or default, got %q", feedPath, op.Field, kw)
			}
			if op.Target != "" {
				return p.errPrevf("feed %s plan: route %s: duplicate default", feedPath, op.Field)
			}
			if op.Target, err = p.path(); err != nil {
				return err
			}
		default:
			return p.errf("feed %s plan: route %s: expected a case string or default", feedPath, op.Field)
		}
	}
	if err := p.advance(); err != nil { // consume '}'
		return err
	}
	if len(op.Cases) == 0 {
		return errAt(line, "feed %s plan: route %s has no cases", feedPath, op.Field)
	}
	return nil
}

// resolvePlans type-checks every plan's operator wiring, verifies
// derived-feed targets exist, and rejects cycles in the feed→target
// graph. Runs inside resolve after feed uniqueness is established, so
// this is the "compile at config-resolve time" gate: a Config that
// parses has well-formed, acyclic plans.
func resolvePlans(cfg *Config, leaves map[string]bool) error {
	derivedTarget := make(map[string]bool)
	for _, f := range cfg.Feeds {
		if f.Plan == nil {
			continue
		}
		if err := checkPlanOps(f, leaves); err != nil {
			return err
		}
		for _, t := range f.Plan.Targets() {
			derivedTarget[t] = true
		}
	}
	// A pattern-less feed only ever receives derived traffic; one that
	// no plan targets can never receive a file at all.
	for _, f := range cfg.Feeds {
		if len(f.Patterns) == 0 && !derivedTarget[f.Path] {
			return fmt.Errorf("config: feed %s has no patterns and no plan routes into it", f.Path)
		}
	}
	return checkPlanCycles(cfg)
}

// checkPlanOps validates one feed's operator chain: stage ordering
// (byte ops before parse, record ops after), at-most-once decompress
// and parse, field wiring (route/enrich/require/numeric fields must be
// extracted first), and target sanity.
func checkPlanOps(f *Feed, leaves map[string]bool) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("config: feed %s plan: %s", f.Path, fmt.Sprintf(format, args...))
	}
	if f.Compress != CompressNone && f.Compress != CompressGzip {
		return bad("compress %s cannot re-encode plan output (use none or gzip)", f.Compress)
	}
	checkTarget := func(t string) error {
		if t == f.Path {
			return bad("routes into itself")
		}
		if !leaves[t] {
			return bad("unknown derived feed %q", t)
		}
		return nil
	}
	var framing string
	seenDecompress := false
	fields := make(map[string]bool)
	for i, op := range f.Plan.Ops {
		switch op.Kind {
		case OpDecompress:
			if i != 0 {
				return bad("decompress must be the first operator")
			}
			if seenDecompress {
				return bad("duplicate decompress")
			}
			seenDecompress = true
		case OpSplit:
			if framing != "" {
				return bad("split must precede parse (it tees the byte stream)")
			}
			if err := checkTarget(op.Target); err != nil {
				return err
			}
		case OpParse:
			if framing != "" {
				return bad("duplicate parse")
			}
			framing = op.Framing
		case OpValidate:
			if framing == "" {
				return bad("validate needs a parse operator before it")
			}
			for _, r := range op.Rules {
				switch r.Kind {
				case "columns":
					if framing != "csv" {
						return bad("validate columns requires csv framing")
					}
				case "require", "numeric":
					if !fields[r.Field] {
						return bad("validate %s %s: field not extracted", r.Kind, r.Field)
					}
				}
			}
		case OpExtract:
			if framing == "" {
				return bad("extract needs a parse operator before it")
			}
			if op.Key != "" && framing != "json" {
				return bad("extract %s: json key needs json framing", op.Field)
			}
			if op.Column > 0 && framing == "json" {
				return bad("extract %s: json framing extracts by key, not column", op.Field)
			}
			if fields[op.Field] {
				return bad("duplicate extract %s", op.Field)
			}
			fields[op.Field] = true
		case OpEnrich:
			if framing == "" {
				return bad("enrich needs a parse operator before it")
			}
			if !fields[op.Field] {
				return bad("enrich key %s: field not extracted", op.Field)
			}
			if op.AtDelivery && i != len(f.Plan.Ops)-1 {
				return bad("enrich at delivery must be the last operator")
			}
		case OpRoute:
			if framing == "" {
				return bad("route needs a parse operator before it")
			}
			if !fields[op.Field] {
				return bad("route %s: field not extracted", op.Field)
			}
			for _, c := range op.Cases {
				if err := checkTarget(c.Target); err != nil {
					return err
				}
			}
			if op.Target != "" {
				if err := checkTarget(op.Target); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// checkPlanCycles rejects cycles in the derived-feed graph (feed →
// split/route target). Derived files run their own feed's plan, so a
// cycle would recurse forever at ingest time.
func checkPlanCycles(cfg *Config) error {
	edges := make(map[string][]string)
	for _, f := range cfg.Feeds {
		if f.Plan != nil {
			edges[f.Path] = f.Plan.Targets()
		}
	}
	const (
		visiting = 1
		done     = 2
	)
	state := make(map[string]int)
	var stack []string
	var walk func(string) error
	walk = func(feed string) error {
		switch state[feed] {
		case done:
			return nil
		case visiting:
			i := 0
			for ; i < len(stack) && stack[i] != feed; i++ {
			}
			return fmt.Errorf("config: plan cycle: %s -> %s",
				strings.Join(stack[i:], " -> "), feed)
		}
		state[feed] = visiting
		stack = append(stack, feed)
		for _, t := range edges[feed] {
			if err := walk(t); err != nil {
				return err
			}
		}
		stack = stack[:len(stack)-1]
		state[feed] = done
		return nil
	}
	feeds := make([]string, 0, len(edges))
	for f := range edges {
		feeds = append(feeds, f)
	}
	sort.Strings(feeds)
	for _, f := range feeds {
		if err := walk(f); err != nil {
			return err
		}
	}
	return nil
}

// writePlan renders a plan block in the configuration language; part
// of Format's round-trip contract.
func writePlan(b *strings.Builder, spec *PlanSpec, ind string) {
	fmt.Fprintf(b, "%splan {\n", ind)
	in := ind + "    "
	for _, op := range spec.Ops {
		switch op.Kind {
		case OpDecompress:
			fmt.Fprintf(b, "%sdecompress %s\n", in, op.Codec)
		case OpSplit:
			fmt.Fprintf(b, "%ssplit %s\n", in, op.Target)
		case OpParse:
			fmt.Fprintf(b, "%sparse %s\n", in, op.Framing)
		case OpValidate:
			fmt.Fprintf(b, "%svalidate {\n", in)
			for _, r := range op.Rules {
				switch r.Kind {
				case "columns":
					fmt.Fprintf(b, "%s    columns %d\n", in, r.Count)
				case "utf8":
					fmt.Fprintf(b, "%s    utf8\n", in)
				default:
					fmt.Fprintf(b, "%s    %s %s\n", in, r.Kind, r.Field)
				}
			}
			fmt.Fprintf(b, "%s}\n", in)
		case OpExtract:
			if op.Key != "" {
				fmt.Fprintf(b, "%sextract %s %s\n", in, op.Field, quote(op.Key))
			} else {
				fmt.Fprintf(b, "%sextract %s %s\n", in, op.Field, strconv.Itoa(op.Column))
			}
		case OpEnrich:
			fmt.Fprintf(b, "%senrich {\n%s    table %s\n%s    key %s\n", in, in, quote(op.Table), in, op.Field)
			if op.AtDelivery {
				fmt.Fprintf(b, "%s    at delivery\n", in)
			}
			fmt.Fprintf(b, "%s}\n", in)
		case OpRoute:
			fmt.Fprintf(b, "%sroute %s {\n", in, op.Field)
			for _, c := range op.Cases {
				fmt.Fprintf(b, "%s    %s %s\n", in, quote(c.Value), c.Target)
			}
			if op.Target != "" {
				fmt.Fprintf(b, "%s    default %s\n", in, op.Target)
			}
			fmt.Fprintf(b, "%s}\n", in)
		}
	}
	fmt.Fprintf(b, "%s}\n", ind)
}
