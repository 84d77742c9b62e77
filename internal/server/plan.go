package server

import (
	"compress/gzip"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"path/filepath"
	"sort"
	"time"

	"bistro/internal/classifier"
	"bistro/internal/config"
	"bistro/internal/diskfault"
	"bistro/internal/normalize"
	"bistro/internal/pattern"
	"bistro/internal/plan"
	"bistro/internal/receipts"
)

// maxPlanDepth bounds derived-feed recursion. Config resolve rejects
// cycles, so this only guards against configs built outside Parse.
const maxPlanDepth = 16

// processPlanned is processArrival's operator-DAG path: it runs the
// primary feed's compiled plan over the landing file, stages the
// primary output plus every derived output (recursively running
// derived feeds' own plans), ships them, clears landing, and commits
// the whole receipt family — parent plus derived, Origin provenance
// set — in one WAL transaction. Crash seams mirror the fixed path:
// every staged output is durable (temp + fsync + rename + dir fsync)
// before the landing file is removed, and all staged/quarantine names
// are deterministic, so a re-run after a power cut overwrites rather
// than duplicates.
func (s *Server) processPlanned(prog *plan.Program, matches []classifier.Match, root, rel string, now time.Time) ([]receipts.FileMeta, error) {
	name := filepath.ToSlash(rel)
	src := filepath.Join(root, rel)
	primary := matches[0]

	in, err := s.fs.Open(src)
	if err != nil {
		return nil, fmt.Errorf("server: open landing %s: %w", name, err)
	}
	outs, err := s.runPlanned(prog, primary.Feed, name, primary.Fields, in, 0)
	in.Close()
	if err != nil {
		return nil, fmt.Errorf("server: plan %s: %w", name, err)
	}

	for _, o := range outs {
		if err := s.shipStaged(o.staged); err != nil {
			return nil, err
		}
	}
	if err := s.fs.Remove(src); err != nil {
		return nil, fmt.Errorf("server: clear landing %s: %w", name, err)
	}

	feeds := make([]string, len(matches))
	for i, m := range matches {
		feeds[i] = m.Feed.Path
	}
	var dataTime time.Time
	if ts, ok := primary.Fields.Time.Timestamp(time.UTC); ok {
		dataTime = ts
	}
	metas := make([]receipts.FileMeta, len(outs))
	for i, o := range outs {
		metas[i] = receipts.FileMeta{
			Name:       name,
			StagedPath: o.staged,
			Feeds:      []string{o.feed.Path},
			Size:       o.size,
			Checksum:   o.crc,
			Arrived:    now,
			DataTime:   dataTime,
		}
	}
	metas[0].Feeds = feeds // the primary keeps every classified feed
	ids, err := s.store.RecordArrivalDerived(metas[0], metas[1:])
	if err != nil {
		return nil, err
	}
	for i := range metas {
		metas[i].ID = ids[i]
		if i > 0 {
			metas[i].Origin = ids[0]
		}
	}
	for _, m := range matches {
		s.logger.FileClassified(m.Feed.Path, name, metas[0].Size, dataTime)
	}
	for _, meta := range metas[1:] {
		s.logger.FileClassified(meta.Feeds[0], name, meta.Size, dataTime)
	}
	return metas, nil
}

// stagedOut is one committed plan output.
type stagedOut struct {
	feed   *config.Feed
	staged string // staging-relative slash path
	size   int64
	crc    uint32
}

// runPlanned executes one feed's program over content and commits its
// outputs; derived outputs whose feed declares its own plan recurse
// (the content flows through a temp file, never fully in memory). The
// returned slice always has this feed's primary output first.
func (s *Server) runPlanned(prog *plan.Program, feed *config.Feed, name string, fields *pattern.Fields, content io.Reader, depth int) ([]stagedOut, error) {
	if depth >= maxPlanDepth {
		return nil, fmt.Errorf("plan recursion depth %d exceeded at feed %s", depth, feed.Path)
	}
	var pri *stagedTemp
	derived := make(map[string]*stagedTemp)
	var rej *stagedTemp
	abort := func() {
		if pri != nil {
			pri.abort()
		}
		for _, t := range derived {
			t.abort()
		}
		if rej != nil {
			rej.abort()
		}
	}
	stats, err := prog.Run(content, plan.Sinks{
		Primary: func() (io.Writer, error) {
			t, err := s.newStagedTemp(filepath.Join(s.stage, filepath.FromSlash(feed.Path)), feed.Compress == config.CompressGzip)
			if err != nil {
				return nil, err
			}
			pri = t
			return t, nil
		},
		Derived: func(feedPath string) (io.Writer, error) {
			df, ok := s.cfg.FeedByPath(feedPath)
			if !ok {
				return nil, fmt.Errorf("unknown derived feed %s", feedPath)
			}
			// A derived feed with its own plan gets raw intermediate
			// bytes (its program applies its own output encoding).
			gz := df.Compress == config.CompressGzip && s.plans.For(feedPath) == nil
			t, err := s.newStagedTemp(filepath.Join(s.stage, filepath.FromSlash(feedPath)), gz)
			if err != nil {
				return nil, err
			}
			derived[feedPath] = t
			return t, nil
		},
		Reject: func() (io.Writer, error) {
			dst := s.planRejectPath(feed.Path, name)
			t, err := s.newStagedTemp(filepath.Dir(dst), false)
			if err != nil {
				return nil, err
			}
			rej = t
			return t, nil
		},
	})
	if err != nil {
		abort()
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
		abort()
		return nil, err
	}
	priOut, err := pri.commit(filepath.Join(s.stage, stagedName))
	if err != nil {
		abort()
		return nil, err
	}
	outs := []stagedOut{{feed: feed, staged: filepath.ToSlash(stagedName), size: priOut.size, crc: priOut.crc}}

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
				abort()
				return nil, err
			}
			outs = append(outs, more...)
			continue
		}
		dName, err := normalize.StagedName(df, name, named)
		if err != nil {
			abort()
			return nil, err
		}
		dOut, err := t.commit(filepath.Join(s.stage, dName))
		if err != nil {
			abort()
			return nil, err
		}
		outs = append(outs, stagedOut{feed: df, staged: filepath.ToSlash(dName), size: dOut.size, crc: dOut.crc})
	}
	if rej != nil {
		if _, err := rej.commit(s.planRejectPath(feed.Path, name)); err != nil {
			abort()
			return nil, err
		}
	}
	return outs, nil
}

// reprocessDerived runs a derived feed's own plan over the
// intermediate temp file a parent plan just wrote, then discards the
// intermediate.
func (s *Server) reprocessDerived(prog *plan.Program, feed *config.Feed, name string, fields *pattern.Fields, t *stagedTemp, depth int) ([]stagedOut, error) {
	if err := t.closeForRead(); err != nil {
		t.abort()
		return nil, err
	}
	defer s.fs.Remove(t.tmpName)
	in, err := s.fs.Open(t.tmpName)
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

// stagedTemp is a durable plan output being written: a temp file in
// (or near) its destination directory, CRC/size accounted at the file
// layer, optionally gzip-wrapped, committed with the same
// fsync-rename-fsync dance as normalize.ProcessFS.
type stagedTemp struct {
	s       *Server
	tmp     diskfault.File
	tmpName string
	crc     hash.Hash32
	size    int64
	zw      *gzip.Writer
	closed  bool
}

// newStagedTemp creates a temp output in dir (created as needed).
func (s *Server) newStagedTemp(dir string, gz bool) (*stagedTemp, error) {
	if err := s.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("plan output mkdir: %w", err)
	}
	f, err := s.fs.CreateTemp(dir, ".bistro-tmp-*")
	if err != nil {
		return nil, fmt.Errorf("plan output temp: %w", err)
	}
	t := &stagedTemp{s: s, tmp: f, tmpName: f.Name(), crc: crc32.NewIEEE()}
	if gz {
		t.zw = gzip.NewWriter(fileLayer{t})
	}
	return t, nil
}

// fileLayer is the accounting layer under the optional gzip wrapper:
// receipts must describe the bytes actually staged.
type fileLayer struct{ t *stagedTemp }

func (fl fileLayer) Write(b []byte) (int, error) {
	n, err := fl.t.tmp.Write(b)
	fl.t.crc.Write(b[:n])
	fl.t.size += int64(n)
	return n, err
}

func (t *stagedTemp) Write(b []byte) (int, error) {
	if t.zw != nil {
		return t.zw.Write(b)
	}
	return fileLayer{t}.Write(b)
}

// closeForRead finalizes the temp content without renaming it —
// used when the bytes feed a derived plan instead of staging.
func (t *stagedTemp) closeForRead() error {
	if t.closed {
		return nil
	}
	t.closed = true
	if t.zw != nil {
		if err := t.zw.Close(); err != nil {
			return fmt.Errorf("plan output gzip: %w", err)
		}
	}
	return t.tmp.Close()
}

type commitResult struct {
	size int64
	crc  uint32
}

// commit makes the output durable at dst: flush, fsync, rename, dir
// fsync — the receipt pointing at dst must survive a power cut.
func (t *stagedTemp) commit(dst string) (commitResult, error) {
	t.closed = true
	if t.zw != nil {
		if err := t.zw.Close(); err != nil {
			t.abortFile()
			return commitResult{}, fmt.Errorf("plan output gzip: %w", err)
		}
	}
	if err := t.tmp.Sync(); err != nil {
		t.abortFile()
		return commitResult{}, fmt.Errorf("plan output sync: %w", err)
	}
	if err := t.tmp.Close(); err != nil {
		t.s.fs.Remove(t.tmpName)
		return commitResult{}, fmt.Errorf("plan output close: %w", err)
	}
	if err := t.s.fs.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.s.fs.Remove(t.tmpName)
		return commitResult{}, fmt.Errorf("plan output mkdir: %w", err)
	}
	if err := t.s.fs.Rename(t.tmpName, dst); err != nil {
		t.s.fs.Remove(t.tmpName)
		return commitResult{}, fmt.Errorf("plan output rename: %w", err)
	}
	if err := t.s.fs.SyncDir(filepath.Dir(dst)); err != nil {
		return commitResult{}, fmt.Errorf("plan output sync dir: %w", err)
	}
	return commitResult{size: t.size, crc: t.crc.Sum32()}, nil
}

func (t *stagedTemp) abortFile() {
	t.tmp.Close()
	t.s.fs.Remove(t.tmpName)
}

// abort discards the temp (idempotent; safe after commit, which
// leaves nothing at tmpName).
func (t *stagedTemp) abort() {
	if !t.closed {
		t.tmp.Close()
		t.closed = true
	}
	t.s.fs.Remove(t.tmpName)
}
