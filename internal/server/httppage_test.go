package server

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"bistro/internal/archive"
	"bistro/internal/config"
	"bistro/internal/receipts"
)

const httpPageConfig = `
window 1h
archive "arch"
feed BPS { pattern "BPS_POLLER%i_%Y%m%d%H_%M.csv.gz" }
http { listen "127.0.0.1:0" }
`

// historyServer starts a server whose feed BPS holds n files, the
// older half archived (expired, in the manifest, folded out of the
// receipt store) and the newer half staged. It writes the content of
// the newest file only, and returns that file's id, the feed's head.
func historyServer(tb testing.TB, n int) (*Server, uint64) {
	tb.Helper()
	cfg, err := config.Parse(httpPageConfig)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := New(Options{Config: cfg, Root: tb.TempDir(), ScanInterval: -1, ExpiryInterval: -1, NoSync: true})
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.Start(); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Stop() })

	old := time.Date(2010, 9, 25, 4, 0, 0, 0, time.UTC)
	recent := old.Add(48 * time.Hour)
	const batch = 1000
	for i := 0; i < n; i += batch {
		family := make([]receipts.FileMeta, min(batch, n-i))
		for j := range family {
			at := old
			if i+j >= n/2 {
				at = recent
			}
			family[j] = receipts.FileMeta{Name: fmt.Sprintf("f%d", i+j), StagedPath: fmt.Sprintf("BPS/f%d", i+j),
				Feeds: []string{"BPS"}, Size: 1, Arrived: at}
		}
		if _, err := s.Store().RecordArrivalDerived(family[0], family[1:]); err != nil {
			tb.Fatal(err)
		}
	}
	expired, err := s.Store().ExpireBefore(old.Add(time.Hour))
	if err != nil {
		tb.Fatal(err)
	}
	var entries []archive.Entry
	for _, m := range expired {
		entries = append(entries, archive.EntriesFor(m, recent)...)
	}
	man := s.Archiver().Manifest()
	if err := man.Append(entries); err != nil {
		tb.Fatal(err)
	}
	if _, err := s.Store().CompactExpired(func(f receipts.FileMeta, _ func(string) bool) bool {
		return man.Has(f.ID)
	}); err != nil {
		tb.Fatal(err)
	}
	head := uint64(n)
	newest, _ := s.Store().File(head)
	if err := os.MkdirAll(filepath.Join(s.stage, "BPS"), 0o755); err != nil {
		tb.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(s.stage, filepath.FromSlash(newest.StagedPath)), []byte("x"), 0o644); err != nil {
		tb.Fatal(err)
	}
	return s, head
}

// get reads one HTTP data plane response to the end.
func get(tb testing.TB, url string) {
	resp, err := http.Get(url)
	if err != nil {
		tb.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		tb.Fatalf("GET %s: %s", url, resp.Status)
	}
}

// TestHTTPReadAllocsFlatInHistory: a tail-page poll and a content GET
// each cost the same bytes over a 50 000-file history as over a
// 1 000-file one. Both read one page of the log, never the whole of
// it.
func TestHTTPReadAllocsFlatInHistory(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	perRead := func(n int) uint64 {
		s, head := historyServer(t, n)
		base := "http://" + s.HTTPAddr() + "/feeds/BPS"
		tail := fmt.Sprintf("%s?from=%d", base, head-99)
		content := fmt.Sprintf("%s/files/%d", base, head)
		get(t, tail)
		get(t, content)
		const reads = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < reads; i++ {
			get(t, tail)
			get(t, content)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / reads
	}
	small, large := perRead(1000), perRead(50000)
	t.Logf("bytes allocated per tail page + content GET: %d at 1 000 files, %d at 50 000", small, large)
	if large > 2*small {
		t.Fatalf("a tail page + content GET allocates %d B at 50 000 files of history against %d B at 1 000: reads grow with history",
			large, small)
	}
}

// BenchmarkTailPage polls the last 100 entries of a feed over the HTTP
// data plane, half of whose history is archived. Each history is built
// once, before its sub-benchmark runs, so a -bench filter on one size
// still builds them all; the 1M one holds ≈ 1.5 GB.
func BenchmarkTailPage(b *testing.B) {
	for _, n := range []int{1000, 100000, 1000000} {
		s, head := historyServer(b, n)
		tail := fmt.Sprintf("http://%s/feeds/BPS?from=%d", s.HTTPAddr(), head-99)
		get(b, tail)
		b.Run(fmt.Sprintf("history=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				get(b, tail)
			}
		})
	}
}
