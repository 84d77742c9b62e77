package plan

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"bistro/internal/diskfault"
)

// tableCache holds loaded side tables, shared by every program in a
// Set (and so by every ingest worker). A table reloads when the
// backing file's mtime or size changes — checked by a cheap Stat each
// time a file run resolves it, never by re-reading the file.
type tableCache struct {
	fs diskfault.FS
	mu sync.RWMutex
	// tables is keyed by resolved path.
	tables map[string]*sideTable
}

// sideTable is one loaded reference file: a CSV whose first column is
// the join key and whose remaining columns are the appended values.
type sideTable struct {
	mtime time.Time
	size  int64
	rows  map[string][]string
}

func newTableCache(fs diskfault.FS) *tableCache {
	return &tableCache{fs: fs, tables: make(map[string]*sideTable)}
}

// resolve returns the table at path, loading or reloading it when the
// backing file changed since it was last loaded.
func (c *tableCache) resolve(path string) (*sideTable, error) {
	st, err := c.fs.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("stat: %w", err)
	}
	c.mu.RLock()
	t := c.tables[path]
	c.mu.RUnlock()
	if t == nil || !t.mtime.Equal(st.ModTime()) || t.size != st.Size() {
		return c.load(path, st.ModTime(), st.Size())
	}
	return t, nil
}

// load (re)reads a side table. Concurrent loaders race benignly: both
// read the same file version and install equivalent snapshots.
func (c *tableCache) load(path string, mtime time.Time, size int64) (*sideTable, error) {
	f, err := c.fs.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	defer f.Close()
	cr := csv.NewReader(f)
	cr.FieldsPerRecord = -1
	rows := make(map[string][]string)
	for {
		cols, err := cr.Read()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, fmt.Errorf("read: %w", err)
		}
		if len(cols) == 0 {
			continue
		}
		rows[cols[0]] = append([]string(nil), cols[1:]...)
	}
	t := &sideTable{mtime: mtime, size: size, rows: rows}
	c.mu.Lock()
	c.tables[path] = t
	c.mu.Unlock()
	return t, nil
}
