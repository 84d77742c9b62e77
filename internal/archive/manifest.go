package archive

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"bistro/internal/diskfault"
	"bistro/internal/receipts"
)

// ManifestDir is the directory under the archive root holding the
// manifest. The leading dot keeps it (and receipts-backup) out of the
// archived-content namespace, which mirrors staged paths.
const ManifestDir = ".manifest"

// Entry is one manifest record: one archived file under one feed. A
// file matched by several feeds gets one entry per feed so per-feed
// range enumeration needs no cross-index.
type Entry struct {
	ID         uint64    `json:"id"`
	Name       string    `json:"name"`
	StagedPath string    `json:"staged"`
	Feed       string    `json:"feed"`
	Feeds      []string  `json:"feeds"`
	Size       int64     `json:"size"`
	Checksum   uint32    `json:"crc"`
	Arrived    time.Time `json:"arrived"`
	DataTime   time.Time `json:"data_time,omitempty"`
	ArchivedAt time.Time `json:"archived_at"`
}

// Key is the time axis entries are partitioned and range-scanned by:
// the file's data time when the pattern carried one, else its arrival
// — the same ordering the retention window expires by.
func (e Entry) Key() time.Time {
	if !e.DataTime.IsZero() {
		return e.DataTime
	}
	return e.Arrived
}

// Meta reconstructs the receipt-store view of an archived file, the
// record replay serves after compaction has folded the receipt away.
func (e Entry) Meta() receipts.FileMeta {
	return receipts.FileMeta{
		ID:         e.ID,
		Name:       e.Name,
		StagedPath: e.StagedPath,
		Feeds:      e.Feeds,
		Size:       e.Size,
		Checksum:   e.Checksum,
		Arrived:    e.Arrived,
		DataTime:   e.DataTime,
	}
}

func dayKey(t time.Time) string { return t.UTC().Format("20060102") }

// Manifest is the archive's fsynced, day-partitioned per-feed index:
// one JSONL file per (feed, UTC day) under
// <archiveRoot>/.manifest/<feed>/<YYYYMMDD>.jsonl. Replay enumerates a
// time range by reading only the day files the range intersects —
// O(requested range), never a walk of the archive tree. An in-memory
// id set (loaded once at open) answers membership for receipt
// compaction.
type Manifest struct {
	fs   diskfault.FS
	root string

	mu  sync.Mutex
	ids map[uint64]bool
	// byFeed is an in-memory per-feed mirror of the day files, sorted
	// by id — the seq-indexed view behind the HTTP data plane's
	// stateless log reads. The open-time scan already reads every day
	// file to build the id set, so keeping the entries costs no extra
	// I/O, only memory proportional to the archived history.
	byFeed map[string][]Entry
}

// OpenManifest loads (or initialises) the manifest rooted at root,
// scanning existing day files once to build the id set.
func OpenManifest(fsys diskfault.FS, root string) (*Manifest, error) {
	if fsys == nil {
		fsys = diskfault.OS()
	}
	if err := fsys.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("archive: manifest mkdir: %w", err)
	}
	m := &Manifest{fs: fsys, root: root, ids: make(map[uint64]bool), byFeed: make(map[string][]Entry)}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(d.Name(), ".jsonl") {
			return err
		}
		entries, rerr := m.readFile(path)
		if rerr != nil {
			return rerr
		}
		for _, e := range entries {
			m.ids[e.ID] = true
			m.byFeed[e.Feed] = append(m.byFeed[e.Feed], e)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("archive: manifest scan: %w", err)
	}
	// A crash between a torn batch append and its retry can leave
	// duplicate (feed, id) lines on disk; the in-memory mirror keeps
	// one.
	for feed, entries := range m.byFeed {
		sort.Slice(entries, func(i, j int) bool { return entries[i].ID < entries[j].ID })
		dedup := entries[:0]
		for i, e := range entries {
			if i > 0 && e.ID == entries[i-1].ID {
				continue
			}
			dedup = append(dedup, e)
		}
		m.byFeed[feed] = dedup
	}
	return m, nil
}

// Has reports whether an archived file with this id is indexed. It is
// safe to call from receipt-compaction callbacks (it takes no store
// locks).
func (m *Manifest) Has(id uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ids[id]
}

// Len returns the number of distinct archived file ids indexed.
func (m *Manifest) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.ids)
}

// Append durably records a batch of entries: grouped per (feed, day)
// file, each touched file is appended and fsynced, and its directory
// fsynced, before Append returns. Entries whose id is already indexed
// are dropped, making re-runs after interrupted expiry idempotent.
func (m *Manifest) Append(entries []Entry) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	byFile := make(map[string][]Entry)
	for _, e := range entries {
		if m.ids[e.ID] {
			continue
		}
		byFile[m.dayPath(e.Feed, e.Key())] = append(byFile[m.dayPath(e.Feed, e.Key())], e)
	}
	for path, batch := range byFile {
		if err := m.appendFile(path, batch); err != nil {
			return err
		}
	}
	// Archival order usually tracks id order but is not guaranteed to
	// (expiry walks by data time): each entry goes into the id-sorted
	// mirror from the tail, past the few archived after it.
	for _, e := range entries {
		if m.ids[e.ID] {
			continue
		}
		fe := m.byFeed[e.Feed]
		i := len(fe)
		for i > 0 && fe[i-1].ID > e.ID {
			i--
		}
		m.byFeed[e.Feed] = slices.Insert(fe, i, e)
	}
	for _, e := range entries {
		m.ids[e.ID] = true
	}
	return nil
}

// Page returns at most limit of the feed's archived entries with
// from <= id < below, in id order, and head, the last archived id below
// below (0 when none): the manifest half of one HTTP data plane page.
// The slice is a copy; callers may retain it.
func (m *Manifest) Page(feed string, from, below uint64, limit int) (page []Entry, head uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	fe := m.byFeed[feed]
	i := sort.Search(len(fe), func(i int) bool { return fe[i].ID >= from })
	end := sort.Search(len(fe), func(i int) bool { return fe[i].ID >= below })
	if end > 0 {
		head = fe[end-1].ID
	}
	if i < end {
		page = make([]Entry, min(limit, end-i))
		copy(page, fe[i:])
	}
	return page, head
}

// EntriesSince returns the feed's archived entries with id >= fromID,
// in id order, as one unbounded Page. It is kept for the benchmark
// harness's per-layer walk. The slice is a copy; callers may retain it.
func (m *Manifest) EntriesSince(feed string, fromID uint64) []Entry {
	page, _ := m.Page(feed, fromID, math.MaxUint64, math.MaxInt)
	return page
}

func (m *Manifest) dayPath(feed string, key time.Time) string {
	return filepath.Join(m.root, filepath.FromSlash(feed), dayKey(key)+".jsonl")
}

func (m *Manifest) appendFile(path string, batch []Entry) error {
	dir := filepath.Dir(path)
	if err := m.fs.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("archive: manifest mkdir: %w", err)
	}
	var existed bool
	if st, err := m.fs.Stat(path); err == nil {
		existed = st.Size() > 0
	}
	f, err := m.fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("archive: manifest open: %w", err)
	}
	var buf []byte
	// A power cut can tear the previous batch's tail; starting each
	// batch on a fresh line keeps one torn record from corrupting the
	// next append (readers skip blank and unparsable lines).
	if existed {
		buf = append(buf, '\n')
	}
	for _, e := range batch {
		line, err := json.Marshal(e)
		if err != nil {
			f.Close()
			return fmt.Errorf("archive: manifest encode: %w", err)
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("archive: manifest write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("archive: manifest sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("archive: manifest close: %w", err)
	}
	return m.fs.SyncDir(dir)
}

func (m *Manifest) readFile(path string) ([]Entry, error) {
	f, err := m.fs.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("archive: manifest read: %w", err)
	}
	defer f.Close()
	var out []Entry
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var e Entry
		// A torn tail from a power cut is expected; skip what does not
		// parse rather than failing the whole day file.
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			continue
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("archive: manifest scan %s: %w", path, err)
	}
	return out, nil
}

// Range enumerates the feed's archived files whose key time lies in
// [from, to), sorted by (key, id). Only day files intersecting the
// range are read.
func (m *Manifest) Range(feed string, from, to time.Time) ([]Entry, error) {
	if !from.Before(to) {
		return nil, nil
	}
	var out []Entry
	day := from.UTC().Truncate(24 * time.Hour)
	end := to.UTC()
	for !day.After(end) {
		entries, err := m.readFile(m.dayPath(feed, day))
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			k := e.Key()
			if !k.Before(from) && k.Before(to) {
				out = append(out, e)
			}
		}
		day = day.Add(24 * time.Hour)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Key().Equal(out[j].Key()) {
			return out[i].Key().Before(out[j].Key())
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
}

// EntriesFor expands one archived file into its per-feed manifest
// entries.
func EntriesFor(meta receipts.FileMeta, archivedAt time.Time) []Entry {
	out := make([]Entry, 0, len(meta.Feeds))
	for _, feed := range meta.Feeds {
		out = append(out, Entry{
			ID:         meta.ID,
			Name:       meta.Name,
			StagedPath: meta.StagedPath,
			Feed:       feed,
			Feeds:      meta.Feeds,
			Size:       meta.Size,
			Checksum:   meta.Checksum,
			Arrived:    meta.Arrived,
			DataTime:   meta.DataTime,
			ArchivedAt: archivedAt,
		})
	}
	return out
}
