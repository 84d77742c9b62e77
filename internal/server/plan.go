package server

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"

	"bistro/internal/config"
	"bistro/internal/normalize"
	"bistro/internal/pattern"
	"bistro/internal/plan"
	"bistro/internal/receipts"
)

// maxPlanDepth bounds derived-feed recursion. Config resolve rejects
// cycles, so this only guards against configs built outside Parse.
const maxPlanDepth = 16

// runPlanned executes one feed's program over content and commits its
// outputs: the primary, every derived output (derived feeds with their
// own plan recurse; the content flows through a temp file, never fully
// in memory) and the validate rejects. Each output is a durable
// normalize.Output with a deterministic name, so a re-run after a power
// cut overwrites rather than duplicates. The returned metas carry each
// output's staged path, feed, size and checksum, this feed's primary
// first; the ingest tail fills in the rest.
func (s *Server) runPlanned(prog *plan.Program, feed *config.Feed, name string, fields *pattern.Fields, content io.Reader, depth int) (outs []receipts.FileMeta, err error) {
	if depth >= maxPlanDepth {
		return nil, fmt.Errorf("plan recursion depth %d exceeded at feed %s", depth, feed.Path)
	}
	var pri, rej *normalize.Output
	derived := make(map[string]*normalize.Output)
	var all []*normalize.Output
	defer func() {
		if err != nil {
			for _, o := range all {
				o.Abort()
			}
		}
	}()
	create := func(dir string, gz bool) (*normalize.Output, error) {
		o, err := normalize.Create(s.fs, dir, gz)
		if err == nil {
			all = append(all, o)
		}
		return o, err
	}
	stats, err := prog.Run(content, plan.Sinks{
		Primary: func() (w io.Writer, err error) {
			pri, err = create(filepath.Join(s.stage, filepath.FromSlash(feed.Path)), feed.Compress == config.CompressGzip)
			return pri, err
		},
		Derived: func(feedPath string) (w io.Writer, err error) {
			df, ok := s.cfg.FeedByPath(feedPath)
			if !ok {
				return nil, fmt.Errorf("unknown derived feed %s", feedPath)
			}
			// A derived feed with its own plan gets raw intermediate
			// bytes (its program applies its own output encoding).
			gz := df.Compress == config.CompressGzip && s.plans.For(feedPath) == nil
			o, err := create(filepath.Join(s.stage, filepath.FromSlash(feedPath)), gz)
			if err != nil {
				return nil, err
			}
			derived[feedPath] = o
			return o, nil
		},
		Reject: func() (w io.Writer, err error) {
			rej, err = create(filepath.Dir(s.planRejectPath(feed.Path, name)), false)
			return rej, err
		},
	})
	if err != nil {
		return nil, err
	}

	// The first record's extracted values join the naming namespace,
	// so normalize templates with extra %s slots can consume them.
	named := fields
	if len(stats.Fields) > 0 {
		clone := *fields
		clone.Strings = append(append([]string(nil), fields.Strings...), stats.Fields...)
		named = &clone
	}
	stagedName, err := normalize.StagedName(feed, name, named)
	if err != nil {
		return nil, err
	}
	res, err := pri.Commit(filepath.Join(s.stage, stagedName))
	if err != nil {
		return nil, err
	}
	outs = []receipts.FileMeta{stagedMeta(feed, stagedName, res)}

	targets := make([]string, 0, len(derived))
	for t := range derived {
		targets = append(targets, t)
	}
	sort.Strings(targets)
	for _, target := range targets {
		t := derived[target]
		df, _ := s.cfg.FeedByPath(target)
		if sub := s.plans.For(target); sub != nil {
			// The derived feed has its own plan: feed the intermediate
			// through it instead of staging it directly.
			more, err := s.reprocessDerived(sub, df, name, named, t, depth+1)
			if err != nil {
				return nil, err
			}
			outs = append(outs, more...)
			continue
		}
		dName, err := normalize.StagedName(df, name, named)
		if err != nil {
			return nil, err
		}
		res, err := t.Commit(filepath.Join(s.stage, dName))
		if err != nil {
			return nil, err
		}
		outs = append(outs, stagedMeta(df, dName, res))
	}
	if rej != nil {
		if _, err := rej.Commit(s.planRejectPath(feed.Path, name)); err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// stagedMeta is the receipt skeleton of one committed output.
func stagedMeta(feed *config.Feed, stagedName string, res normalize.Result) receipts.FileMeta {
	return receipts.FileMeta{
		StagedPath: filepath.ToSlash(stagedName),
		Feeds:      []string{feed.Path},
		Size:       res.Size,
		Checksum:   res.Checksum,
	}
}

// reprocessDerived runs a derived feed's own plan over the
// intermediate temp file a parent plan just wrote, then discards the
// intermediate.
func (s *Server) reprocessDerived(prog *plan.Program, feed *config.Feed, name string, fields *pattern.Fields, t *normalize.Output, depth int) ([]receipts.FileMeta, error) {
	defer t.Abort()
	if err := t.CloseForRead(); err != nil {
		return nil, err
	}
	in, err := s.fs.Open(t.Name())
	if err != nil {
		return nil, err
	}
	defer in.Close()
	return s.runPlanned(prog, feed, name, fields, in, depth)
}

// planRejectPath is the deterministic quarantine location for a
// feed's validate rejects from one arrival: re-running the same file
// after a crash overwrites, never duplicates.
func (s *Server) planRejectPath(feedPath, name string) string {
	return filepath.Join(s.quar, "_plan", filepath.FromSlash(feedPath), filepath.FromSlash(name)+".rejects")
}

// deliveryTransform is the delivery engine's seam for plans that
// defer enrichment to delivery (IDEA's at-delivery placement): it
// maps a feed to the transform its plan demands, or nil.
func (s *Server) deliveryTransform(feed string) func([]byte) ([]byte, error) {
	if p := s.plans.For(feed); p != nil {
		return p.DeliveryTransform()
	}
	return nil
}
