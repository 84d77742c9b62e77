//go:build linux

package benchmark

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bistro/internal/diskfault"
)

// Tree names the part of the server root an FS operation touched; the
// per-layer storage metrics are attributed by it.
type Tree int

const (
	TreeLanding Tree = iota
	TreeStaging
	TreeReceipts
	TreeArchive
	TreeQuarantine
	TreeOther
	numTrees
)

// TreeStats are one tree's operation counts, bytes and busy time.
type TreeStats struct {
	BytesW, BytesR int64
	Fsyncs         int64     // file Sync + SyncDir
	BusyNs         int64     // time spent inside FS calls
	WriteNs        int64     // the part of BusyNs spent creating, writing and closing written files
	FsyncUs        []float64 // one duration per fsync (first maxFsyncSamples), for percentiles
}

// since returns the counts accumulated after the earlier snapshot o.
func (s TreeStats) since(o TreeStats) TreeStats {
	return TreeStats{
		BytesW: s.BytesW - o.BytesW, BytesR: s.BytesR - o.BytesR,
		Fsyncs: s.Fsyncs - o.Fsyncs,
		BusyNs: s.BusyNs - o.BusyNs, WriteNs: s.WriteNs - o.WriteNs,
		FsyncUs: s.FsyncUs[min(len(o.FsyncUs), len(s.FsyncUs)):],
	}
}

// maxFsyncSamples bounds the per-tree fsync duration log.
const maxFsyncSamples = 1 << 16

// fsSpan is one storage interval attributed to a deposited file (Key
// is its staging- or landing-relative path; empty for the shared WAL).
type fsSpan struct {
	Tree       Tree
	Key        string
	Start, End time.Time
}

// CountingFS wraps a diskfault.FS, counting and timing every
// operation by tree and reporting per-file storage spans. It is the
// traced run's tap on the storage path (Options.FS); while disabled it
// forwards calls after one atomic load.
type CountingFS struct {
	inner diskfault.FS
	root  string
	on    atomic.Bool

	mu    sync.Mutex
	trees [numTrees]TreeStats
	// temps maps a closed staging temp file to when it was created.
	temps map[string]time.Time
	// renamed remembers, per staging directory, the file whose rename
	// the next SyncDir of that directory makes durable. One shard
	// worker owns a source directory, so the pairing is unambiguous.
	renamed  map[string]fsSpan
	walStart time.Time // first WAL write since the last WAL fsync
	spans    []fsSpan
}

// NewCountingFS wraps inner for a server rooted at root.
func NewCountingFS(inner diskfault.FS, root string) *CountingFS {
	return &CountingFS{
		inner:   inner,
		root:    filepath.Clean(root),
		temps:   make(map[string]time.Time),
		renamed: make(map[string]fsSpan),
	}
}

// Enable switches accounting on or off.
func (c *CountingFS) Enable(on bool) { c.on.Store(on) }

// Snapshot returns a copy of the per-tree counters.
func (c *CountingFS) Snapshot() [numTrees]TreeStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.trees
	for i := range out {
		out[i].FsyncUs = append([]float64(nil), out[i].FsyncUs...)
	}
	return out
}

// TakeSpans returns and clears the recorded per-file spans.
func (c *CountingFS) TakeSpans() []fsSpan {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.spans
	c.spans = nil
	return out
}

func (c *CountingFS) tree(path string) (Tree, string) {
	rel, err := filepath.Rel(c.root, path)
	if err != nil || strings.HasPrefix(rel, "..") {
		return TreeOther, path
	}
	rel = filepath.ToSlash(rel)
	top, rest, _ := strings.Cut(rel, "/")
	switch top {
	case "landing":
		return TreeLanding, rest
	case "staging":
		return TreeStaging, rest
	case "receipts":
		return TreeReceipts, rest
	case "archive":
		return TreeArchive, rest
	case "quarantine":
		return TreeQuarantine, rest
	}
	return TreeOther, rel
}

// busy adds d to a tree's busy time.
func (c *CountingFS) busy(t Tree, d time.Duration) {
	c.mu.Lock()
	c.trees[t].BusyNs += int64(d)
	c.mu.Unlock()
}

func (c *CountingFS) fsync(t Tree, d time.Duration) {
	c.mu.Lock()
	st := &c.trees[t]
	st.Fsyncs++
	st.BusyNs += int64(d)
	if len(st.FsyncUs) < maxFsyncSamples {
		st.FsyncUs = append(st.FsyncUs, usOf(d))
	}
	c.mu.Unlock()
}

// wrap always wraps the handle — the receipt WAL is opened once at
// boot and must be counted whenever accounting is later enabled.
func (c *CountingFS) wrap(f diskfault.File, err error, start time.Time, write bool) (diskfault.File, error) {
	if err != nil {
		return f, err
	}
	t, key := c.tree(f.Name())
	if c.on.Load() {
		d := time.Since(start)
		c.mu.Lock()
		c.trees[t].BusyNs += int64(d)
		if write {
			c.trees[t].WriteNs += int64(d)
		}
		c.mu.Unlock()
	}
	return &countingFile{File: f, fs: c, tree: t, key: key, opened: start, write: write}, nil
}

func (c *CountingFS) OpenFile(name string, flag int, perm os.FileMode) (diskfault.File, error) {
	start := time.Now()
	f, err := c.inner.OpenFile(name, flag, perm)
	return c.wrap(f, err, start, flag&(os.O_WRONLY|os.O_RDWR) != 0)
}

func (c *CountingFS) Open(name string) (diskfault.File, error) {
	start := time.Now()
	f, err := c.inner.Open(name)
	return c.wrap(f, err, start, false)
}

func (c *CountingFS) Create(name string) (diskfault.File, error) {
	start := time.Now()
	f, err := c.inner.Create(name)
	return c.wrap(f, err, start, true)
}

func (c *CountingFS) CreateTemp(dir, pattern string) (diskfault.File, error) {
	start := time.Now()
	f, err := c.inner.CreateTemp(dir, pattern)
	return c.wrap(f, err, start, true)
}

func (c *CountingFS) Rename(oldpath, newpath string) error {
	if !c.on.Load() {
		return c.inner.Rename(oldpath, newpath)
	}
	start := time.Now()
	err := c.inner.Rename(oldpath, newpath)
	t, key := c.tree(newpath)
	c.mu.Lock()
	c.trees[t].BusyNs += int64(time.Since(start))
	if err == nil && t == TreeStaging {
		// The span opened when the temp file was created; carry that
		// start over to the destination's name.
		opened, ok := c.temps[oldpath]
		delete(c.temps, oldpath)
		if !ok {
			opened = start
		}
		c.renamed[filepath.Dir(newpath)] = fsSpan{Tree: t, Key: key, Start: opened}
	}
	c.mu.Unlock()
	return err
}

func (c *CountingFS) Remove(name string) error {
	if !c.on.Load() {
		return c.inner.Remove(name)
	}
	start := time.Now()
	err := c.inner.Remove(name)
	t, _ := c.tree(name)
	c.busy(t, time.Since(start))
	return err
}

func (c *CountingFS) MkdirAll(path string, perm os.FileMode) error {
	if !c.on.Load() {
		return c.inner.MkdirAll(path, perm)
	}
	start := time.Now()
	err := c.inner.MkdirAll(path, perm)
	t, _ := c.tree(path)
	c.busy(t, time.Since(start))
	return err
}

func (c *CountingFS) Stat(name string) (os.FileInfo, error) {
	if !c.on.Load() {
		return c.inner.Stat(name)
	}
	start := time.Now()
	fi, err := c.inner.Stat(name)
	t, _ := c.tree(name)
	c.busy(t, time.Since(start))
	return fi, err
}

func (c *CountingFS) SyncDir(dir string) error {
	if !c.on.Load() {
		return c.inner.SyncDir(dir)
	}
	start := time.Now()
	err := c.inner.SyncDir(dir)
	end := time.Now()
	t, _ := c.tree(dir)
	c.fsync(t, end.Sub(start))
	if t == TreeStaging {
		c.mu.Lock()
		if sp, ok := c.renamed[dir]; ok {
			delete(c.renamed, dir)
			sp.End = end
			c.spans = append(c.spans, sp)
		}
		c.mu.Unlock()
	}
	return err
}

// countingFile counts one handle's I/O.
type countingFile struct {
	diskfault.File
	fs     *CountingFS
	tree   Tree
	key    string
	opened time.Time
	write  bool
}

func (f *countingFile) Write(p []byte) (int, error) {
	if !f.fs.on.Load() {
		return f.File.Write(p)
	}
	start := time.Now()
	n, err := f.File.Write(p)
	c := f.fs
	c.mu.Lock()
	st := &c.trees[f.tree]
	d := int64(time.Since(start))
	st.BytesW += int64(n)
	st.BusyNs += d
	st.WriteNs += d
	if f.tree == TreeReceipts && c.walStart.IsZero() {
		c.walStart = start
	}
	c.mu.Unlock()
	return n, err
}

func (f *countingFile) Read(p []byte) (int, error) {
	if !f.fs.on.Load() {
		return f.File.Read(p)
	}
	start := time.Now()
	n, err := f.File.Read(p)
	c := f.fs
	c.mu.Lock()
	st := &c.trees[f.tree]
	st.BytesR += int64(n)
	st.BusyNs += int64(time.Since(start))
	c.mu.Unlock()
	return n, err
}

func (f *countingFile) Sync() error {
	if !f.fs.on.Load() {
		return f.File.Sync()
	}
	start := time.Now()
	err := f.File.Sync()
	end := time.Now()
	c := f.fs
	c.fsync(f.tree, end.Sub(start))
	if f.tree == TreeReceipts {
		// One group-commit flush: first queued write to fsync return.
		c.mu.Lock()
		ws := c.walStart
		c.walStart = time.Time{}
		if ws.IsZero() {
			ws = start
		}
		c.spans = append(c.spans, fsSpan{Tree: TreeReceipts, Start: ws, End: end})
		c.mu.Unlock()
	}
	return err
}

func (f *countingFile) Close() error {
	if !f.fs.on.Load() {
		return f.File.Close()
	}
	start := time.Now()
	err := f.File.Close()
	end := time.Now()
	c := f.fs
	c.mu.Lock()
	c.trees[f.tree].BusyNs += int64(end.Sub(start))
	if f.write {
		c.trees[f.tree].WriteNs += int64(end.Sub(start))
	}
	switch {
	case !f.write:
	case f.tree == TreeLanding:
		c.spans = append(c.spans, fsSpan{Tree: TreeLanding, Key: f.key, Start: f.opened, End: end})
	case f.tree == TreeStaging:
		// A staged temp: its span stays open until the rename and the
		// directory fsync that make it durable.
		c.temps[f.File.Name()] = f.opened
	}
	c.mu.Unlock()
	return err
}
