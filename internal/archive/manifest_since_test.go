package archive

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func sinceEntry(id uint64, feed string, key time.Time) Entry {
	return Entry{
		ID:         id,
		Name:       "f",
		StagedPath: "staging/f",
		Feed:       feed,
		Feeds:      []string{feed},
		Size:       10,
		Checksum:   0xbeef,
		Arrived:    key,
		ArchivedAt: key.Add(time.Hour),
	}
}

func sinceIDs(entries []Entry) []uint64 {
	out := make([]uint64, len(entries))
	for i, e := range entries {
		out[i] = e.ID
	}
	return out
}

// TestEntriesSince checks the seq-indexed mirror behind the HTTP data
// plane's log reads: id ordering under out-of-order appends, cursor
// positioning, and survival across a manifest reopen.
func TestEntriesSince(t *testing.T) {
	root := t.TempDir()
	m, err := OpenManifest(nil, root)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.EntriesSince("F", 0); len(got) != 0 {
		t.Fatalf("EntriesSince on empty manifest = %v", got)
	}

	// Expiry walks by data time, so archival order can invert id order;
	// the mirror must re-sort.
	if err := m.Append([]Entry{sinceEntry(5, "F", t0)}); err != nil {
		t.Fatal(err)
	}
	if err := m.Append([]Entry{
		sinceEntry(9, "F", t0.Add(time.Minute)),
		sinceEntry(2, "F", t0.Add(2*time.Minute)),
		sinceEntry(7, "G", t0),
	}); err != nil {
		t.Fatal(err)
	}

	if got := sinceIDs(m.EntriesSince("F", 0)); len(got) != 3 || got[0] != 2 || got[1] != 5 || got[2] != 9 {
		t.Fatalf("EntriesSince(F, 0) = %v, want [2 5 9]", got)
	}
	if got := sinceIDs(m.EntriesSince("F", 5)); len(got) != 2 || got[0] != 5 || got[1] != 9 {
		t.Fatalf("EntriesSince(F, 5) = %v, want [5 9]", got)
	}
	if got := m.EntriesSince("F", 10); len(got) != 0 {
		t.Fatalf("EntriesSince past head = %v, want empty", got)
	}
	if got := sinceIDs(m.EntriesSince("G", 0)); len(got) != 1 || got[0] != 7 {
		t.Fatalf("EntriesSince(G, 0) = %v, want [7]", got)
	}

	// Re-appending an indexed id is a no-op (idempotent expiry re-run).
	if err := m.Append([]Entry{sinceEntry(5, "F", t0)}); err != nil {
		t.Fatal(err)
	}
	if got := m.EntriesSince("F", 0); len(got) != 3 {
		t.Fatalf("duplicate append grew the mirror: %d entries", len(got))
	}

	// The mirror is rebuilt from the day files on reopen.
	m2, err := OpenManifest(nil, root)
	if err != nil {
		t.Fatal(err)
	}
	if got := sinceIDs(m2.EntriesSince("F", 0)); len(got) != 3 || got[0] != 2 || got[1] != 5 || got[2] != 9 {
		t.Fatalf("after reopen EntriesSince(F, 0) = %v, want [2 5 9]", got)
	}
}

// TestEntriesSinceDedupsTornRetry simulates the crash window where a
// batch append is retried after its first write already reached disk:
// the day file holds duplicate (feed, id) lines, and the open-time
// scan must keep exactly one.
func TestEntriesSinceDedupsTornRetry(t *testing.T) {
	root := t.TempDir()
	m, err := OpenManifest(nil, root)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Append([]Entry{sinceEntry(3, "F", t0), sinceEntry(4, "F", t0)}); err != nil {
		t.Fatal(err)
	}

	// Duplicate the day file's first record on disk.
	var day string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".jsonl") {
			day = path
		}
		return err
	})
	if day == "" {
		t.Fatal("no day file written")
	}
	data, err := os.ReadFile(day)
	if err != nil {
		t.Fatal(err)
	}
	first, _, _ := strings.Cut(strings.TrimLeft(string(data), "\n"), "\n")
	f, err := os.OpenFile(day, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("\n" + first + "\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	m2, err := OpenManifest(nil, root)
	if err != nil {
		t.Fatal(err)
	}
	if got := sinceIDs(m2.EntriesSince("F", 0)); len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Fatalf("after torn retry EntriesSince(F, 0) = %v, want [3 4]", got)
	}
}

// TestPageStopsBelowBound: a page holds at most limit entries from the
// cursor on, and no archived id at or above the bound the receipt store
// passes in (its first id still committing), nor counts one as head.
func TestPageStopsBelowBound(t *testing.T) {
	m, err := OpenManifest(nil, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var batch []Entry
	for _, id := range []uint64{2, 5, 9, 12} {
		batch = append(batch, sinceEntry(id, "F", t0))
	}
	if err := m.Append(batch); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		from, below uint64
		limit       int
		want        []uint64
		head        uint64
	}{
		{0, 100, 10, []uint64{2, 5, 9, 12}, 12},
		{0, 9, 10, []uint64{2, 5}, 5},
		{0, 10, 10, []uint64{2, 5, 9}, 9},
		{3, 9, 10, []uint64{5}, 5},
		{0, 100, 2, []uint64{2, 5}, 12},
		{9, 9, 10, nil, 5},
		{0, 2, 10, nil, 0},
	} {
		page, head := m.Page("F", c.from, c.below, c.limit)
		if got := sinceIDs(page); fmt.Sprint(got) != fmt.Sprint(c.want) || head != c.head {
			t.Errorf("Page(F, from %d, below %d, limit %d) = %v head %d, want %v head %d",
				c.from, c.below, c.limit, got, head, c.want, c.head)
		}
	}
}
