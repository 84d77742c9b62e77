package archive

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// FuzzManifestReadFile writes arbitrary bytes as one day file of a
// manifest and opens it with OpenManifest. The open must never panic.
// Every entry it indexes must be what one line of the input decodes to
// on its own, so a torn or garbage line is skipped and never merged
// into a neighbour, and every line that decodes must be indexed under
// its feed and id. The open may allocate at most 64 bytes per input
// byte plus 1 MiB (the scanner's line cap).
func FuzzManifestReadFile(f *testing.F) {
	line := `{"id":1,"name":"a","staged":"F/a","feed":"F","feeds":["F"],"size":3,"crc":7,` +
		`"arrived":"2010-09-25T00:00:00Z","archived_at":"2010-09-26T00:00:00Z"}`
	id2 := strings.Replace(line, `"id":1`, `"id":2`, 1)
	for _, seed := range []string{
		"",
		line + "\n",
		line + "\n" + line[:40], // a power cut tore the tail
		"\n\n" + line + "\n{not json}\n" + id2 + "\r\n",                    // blank, garbage, CRLF
		line + "\n" + strings.Replace(line, `"feed":"F"`, `"feed":"G"`, 1), // one file, two feeds
		line + "\n" + line + "\n",                                          // a retried batch repeats a line
		`{"id":3,"data_time":"2010-09-25T00:00:00+02:00"}`,
		line[:len(line)-1] + `,"extra":[1,2,3]}` + "\n" + `[]` + "\n" + `null`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		root := t.TempDir()
		path := filepath.Join(root, "F", "20100925.jsonl")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, in, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := OpenManifest(nil, root)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, 64*uint64(len(in))+1<<20; grew > limit {
			t.Fatalf("OpenManifest allocated %d bytes for a %d-byte day file, limit %d", grew, len(in), limit)
		}
		if err != nil {
			return // a line over the scanner's cap fails the open as a whole
		}

		// The reference: each line decoded on its own.
		want := make(map[string]map[uint64][]string) // feed -> id -> encodings
		ids := make(map[uint64]bool)
		for _, l := range strings.Split(string(in), "\n") {
			var e Entry
			if l = strings.TrimSpace(l); l == "" || json.Unmarshal([]byte(l), &e) != nil {
				continue
			}
			enc, _ := json.Marshal(e)
			if want[e.Feed] == nil {
				want[e.Feed] = make(map[uint64][]string)
			}
			want[e.Feed][e.ID] = append(want[e.Feed][e.ID], string(enc))
			ids[e.ID] = true
		}
		if m.Len() != len(ids) {
			t.Fatalf("manifest indexes %d ids, the input's lines decode to %d", m.Len(), len(ids))
		}
		for feed, byID := range want {
			got := m.EntriesSince(feed, 0)
			if len(got) != len(byID) {
				t.Fatalf("feed %q: %d entries indexed, the input's lines decode to %d ids", feed, len(got), len(byID))
			}
			for _, e := range got {
				if enc, _ := json.Marshal(e); !slices.Contains(byID[e.ID], string(enc)) {
					t.Fatalf("feed %q: indexed entry %s is no line of the input", feed, enc)
				}
			}
		}
	})
}
