package httpfeed

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"bistro/internal/archive"
	"bistro/internal/metrics"
)

// fixture is a data plane over an in-memory log and an on-disk staging
// dir, mutable mid-test to model churn (quarantine, expiry).
type fixture struct {
	t   *testing.T
	srv *Server
	reg *metrics.Registry

	mu       sync.Mutex
	log      map[string][]Entry
	ingested []string
}

func (fx *fixture) setLog(feed string, entries []Entry) {
	fx.mu.Lock()
	defer fx.mu.Unlock()
	fx.log[feed] = entries
}

// pageOf serves one Options.Log page out of a whole seq-sorted log.
func pageOf(log []Entry, from uint64, limit int) ([]Entry, uint64) {
	var head uint64
	if len(log) > 0 {
		head = log[len(log)-1].Seq
	}
	i := sort.Search(len(log), func(i int) bool { return log[i].Seq >= from })
	page := log[i:]
	return page[:min(len(page), limit)], head
}

func newFixture(t *testing.T, mutate func(*Options)) *fixture {
	t.Helper()
	dir := t.TempDir()
	for name, content := range map[string]string{
		"market/BPS/one.csv": "a,b\n",
		"market/BPS/two.csv": "c,d\ne,f\n",
	} {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fx := &fixture{t: t, reg: metrics.NewRegistry(), log: map[string][]Entry{}}
	base := time.Date(2026, 8, 7, 10, 0, 0, 0, time.UTC)
	fx.log["market/BPS"] = []Entry{
		{Seq: 3, Name: "one.csv", StagedPath: "market/BPS/one.csv", Size: 4, Checksum: 0xaa, Time: base, Archived: true},
		{Seq: 5, Name: "two.csv", StagedPath: "market/BPS/two.csv", Size: 8, Checksum: 0xbb, Time: base.Add(time.Minute)},
	}
	fx.log["ref"] = nil
	opts := Options{
		Listen:   "127.0.0.1:0",
		Feeds:    []string{"market/BPS", "ref"},
		Registry: fx.reg,
		Principals: []*Principal{
			{Name: "wh1", Token: "s3cret", Feeds: []string{"market/BPS"}},
			{Name: "ops", Token: "t0ken", Feeds: []string{"market/BPS", "ref"}},
		},
		Log: func(feed string, from uint64, limit int) ([]Entry, uint64) {
			fx.mu.Lock()
			defer fx.mu.Unlock()
			return pageOf(fx.log[feed], from, limit)
		},
		Open: func(stagedPath string) (io.ReadCloser, error) {
			return os.Open(filepath.Join(dir, filepath.FromSlash(stagedPath)))
		},
		Ingest: func(name string, body io.Reader) error {
			if _, err := io.ReadAll(body); err != nil {
				return err
			}
			fx.mu.Lock()
			defer fx.mu.Unlock()
			fx.ingested = append(fx.ingested, name)
			return nil
		},
		// Stand-in classifier: names route by prefix, default market/BPS.
		Resolve: func(name string) []string {
			switch {
			case strings.HasPrefix(name, "ref_"):
				return []string{"ref"}
			case strings.HasPrefix(name, "both_"):
				return []string{"market/BPS", "ref"}
			case strings.HasPrefix(name, "junk_"):
				return nil
			default:
				return []string{"market/BPS"}
			}
		},
	}
	if mutate != nil {
		mutate(&opts)
	}
	srv, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Stop() })
	fx.srv = srv
	return fx
}

func (fx *fixture) do(method, path, auth string, body []byte, hdr map[string]string) *http.Response {
	fx.t.Helper()
	req, err := http.NewRequest(method, "http://"+fx.srv.Addr()+path, bytes.NewReader(body))
	if err != nil {
		fx.t.Fatal(err)
	}
	if auth != "" {
		req.Header.Set("Authorization", auth)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fx.t.Fatal(err)
	}
	fx.t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func decodePage(t *testing.T, resp *http.Response) logPage {
	t.Helper()
	var page logPage
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	return page
}

const bearer = "Bearer s3cret"

// TestEndpointAuthMatrix pins every endpoint × auth outcome.
func TestEndpointAuthMatrix(t *testing.T) {
	fx := newFixture(t, nil)
	basicOps := BuildAuthorization("ops", "t0ken")
	cases := []struct {
		name         string
		method, path string
		auth         string
		want         int
	}{
		{"log ok bearer", "GET", "/feeds/market/BPS", bearer, 200},
		{"log ok basic", "GET", "/feeds/market/BPS", basicOps, 200},
		{"stats ok", "GET", "/feeds/market/BPS/stats", bearer, 200},
		{"content ok", "GET", "/feeds/market/BPS/files/5", bearer, 200},
		{"ingest ok", "POST", "/feeds/market/BPS?name=x.csv", bearer, 201},

		{"no credentials", "GET", "/feeds/market/BPS", "", 401},
		{"garbage header", "GET", "/feeds/market/BPS", "Digest nope", 401},
		{"unknown token", "GET", "/feeds/market/BPS", "Bearer wrong", 401},
		{"basic wrong user", "GET", "/feeds/market/BPS", BuildAuthorization("ghost", "t0ken"), 401},
		{"basic wrong password", "GET", "/feeds/market/BPS", BuildAuthorization("ops", "bad"), 401},

		{"feed outside ACL", "GET", "/feeds/ref", bearer, 403},
		{"stats outside ACL", "GET", "/feeds/ref/stats", bearer, 403},
		{"ingest outside ACL", "POST", "/feeds/ref?name=x.csv", bearer, 403},
		// The deposit routes by name pattern, not URL: a name that
		// resolves to a feed outside the ACL is refused even when the
		// URL feed itself is allowed (the PR 9 ACL-bypass hole).
		{"ingest name routes outside ACL", "POST", "/feeds/market/BPS?name=ref_x.csv", bearer, 403},
		{"ingest multicast partly outside ACL", "POST", "/feeds/market/BPS?name=both_x.csv", bearer, 403},
		{"ingest multicast within ACL", "POST", "/feeds/market/BPS?name=both_x.csv", basicOps, 201},
		{"ingest name routes elsewhere", "POST", "/feeds/market/BPS?name=ref_x.csv", basicOps, 400},
		{"ingest unmatched name", "POST", "/feeds/market/BPS?name=junk_x.csv", basicOps, 400},

		{"unknown feed", "GET", "/feeds/nope", bearer, 404},
		{"unknown nested feed", "GET", "/feeds/market/NOPE", bearer, 404},
		{"unknown seq", "GET", "/feeds/market/BPS/files/99", bearer, 404},
		{"files bad seq", "GET", "/feeds/market/BPS/files/xyz", bearer, 404},

		{"from past head", "GET", "/feeds/market/BPS?from=7", bearer, 416},

		{"log delete", "DELETE", "/feeds/market/BPS", bearer, 405},
		{"stats post", "POST", "/feeds/market/BPS/stats", bearer, 405},
		{"content post", "POST", "/feeds/market/BPS/files/5", bearer, 405},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp := fx.do(c.method, c.path, c.auth, nil, nil)
			if resp.StatusCode != c.want {
				body, _ := io.ReadAll(resp.Body)
				t.Fatalf("%s %s: status %d, want %d (%s)", c.method, c.path, resp.StatusCode, c.want, body)
			}
			if c.want == 401 && resp.Header.Get("WWW-Authenticate") == "" {
				t.Fatal("401 without WWW-Authenticate")
			}
		})
	}
}

func TestLogPagination(t *testing.T) {
	fx := newFixture(t, nil)
	// First page: everything from the start.
	page := decodePage(t, fx.do("GET", "/feeds/market/BPS", bearer, nil, nil))
	if page.Head != 5 || len(page.Entries) != 2 || page.Next != 6 {
		t.Fatalf("page = %+v", page)
	}
	if page.Entries[0].Seq != 3 || !page.Entries[0].Archived || page.Entries[1].Seq != 5 {
		t.Fatalf("entries = %+v", page.Entries)
	}
	// limit=1 then resume at next: ids with gaps, no entry skipped.
	p1 := decodePage(t, fx.do("GET", "/feeds/market/BPS?limit=1", bearer, nil, nil))
	if len(p1.Entries) != 1 || p1.Entries[0].Seq != 3 || p1.Next != 4 {
		t.Fatalf("p1 = %+v", p1)
	}
	p2 := decodePage(t, fx.do("GET", fmt.Sprintf("/feeds/market/BPS?from=%d", p1.Next), bearer, nil, nil))
	if len(p2.Entries) != 1 || p2.Entries[0].Seq != 5 || p2.Next != 6 {
		t.Fatalf("p2 = %+v", p2)
	}
	// Caught-up tail: empty 200 page, not 416.
	p3 := decodePage(t, fx.do("GET", fmt.Sprintf("/feeds/market/BPS?from=%d", p2.Next), bearer, nil, nil))
	if len(p3.Entries) != 0 || p3.Next != 6 {
		t.Fatalf("p3 = %+v", p3)
	}
	// Time cursor: starts at the first entry not before the instant.
	ts := time.Date(2026, 8, 7, 10, 0, 30, 0, time.UTC).Format(time.RFC3339)
	pt := decodePage(t, fx.do("GET", "/feeds/market/BPS?from="+ts, bearer, nil, nil))
	if len(pt.Entries) != 1 || pt.Entries[0].Seq != 5 {
		t.Fatalf("pt = %+v", pt)
	}
	// Bad cursors.
	for _, q := range []string{"?from=xyz", "?limit=0", "?limit=-3", "?limit=zz"} {
		if resp := fx.do("GET", "/feeds/market/BPS"+q, bearer, nil, nil); resp.StatusCode != 400 {
			t.Fatalf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestTimeCursorNonMonotone pins the from=<ts> semantics when data
// times are not monotone in seq (a late-arriving file carries an older
// data time): the read starts at the earliest seq whose time
// qualifies, so no qualifying entry is skipped — a binary search over
// the seq-sorted log would land arbitrarily and drop entries.
func TestTimeCursorNonMonotone(t *testing.T) {
	base := time.Date(2026, 8, 7, 10, 0, 0, 0, time.UTC)
	fx := newFixture(t, nil)
	fx.setLog("market/BPS", []Entry{
		{Seq: 3, Name: "new.csv", Time: base.Add(2 * time.Minute)},
		{Seq: 5, Name: "straggler.csv", Time: base}, // older data, later seq
		{Seq: 7, Name: "newest.csv", Time: base.Add(3 * time.Minute)},
	})
	ts := base.Add(time.Minute).Format(time.RFC3339)
	page := decodePage(t, fx.do("GET", "/feeds/market/BPS?from="+ts, bearer, nil, nil))
	// Seq 3 qualifies and must not be skipped; the straggler rides
	// along because the page is a contiguous seq suffix.
	if len(page.Entries) != 3 || page.Entries[0].Seq != 3 {
		t.Fatalf("page = %+v", page)
	}
}

func TestLogCachingHeaders(t *testing.T) {
	fx := newFixture(t, nil)
	// A full page (limit reached) is cacheable — but the plane runs with
	// principals, so it must be private (a shared cache would re-serve
	// one principal's authorized read to anyone) and carry a short TTL
	// (the page includes a staged entry quarantine could withdraw).
	resp := fx.do("GET", "/feeds/market/BPS?limit=2", bearer, nil, nil)
	if cc := resp.Header.Get("Cache-Control"); !strings.Contains(cc, "private") ||
		strings.Contains(cc, "public") || !strings.Contains(cc, "max-age=300") {
		t.Fatalf("full page Cache-Control = %q", cc)
	}
	if v := resp.Header.Get("Vary"); v != "Authorization" {
		t.Fatalf("ACL-gated response Vary = %q", v)
	}
	// A partial (tail) page must revalidate.
	resp = fx.do("GET", "/feeds/market/BPS", bearer, nil, nil)
	if cc := resp.Header.Get("Cache-Control"); cc != "no-cache" {
		t.Fatalf("tail page Cache-Control = %q", cc)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on log page")
	}
	// Idle poll with the cursor ETag costs a 304.
	resp = fx.do("GET", "/feeds/market/BPS", bearer, nil, map[string]string{"If-None-Match": etag})
	if resp.StatusCode != 304 {
		t.Fatalf("revalidation status = %d", resp.StatusCode)
	}
	// New arrival changes the ETag: same request now returns the page.
	fx.mu.Lock()
	fx.log["market/BPS"] = append(fx.log["market/BPS"],
		Entry{Seq: 9, Name: "three.csv", StagedPath: "market/BPS/one.csv", Size: 4, Time: time.Now()})
	fx.mu.Unlock()
	resp = fx.do("GET", "/feeds/market/BPS", bearer, nil, map[string]string{"If-None-Match": etag})
	if resp.StatusCode != 200 {
		t.Fatalf("post-append status = %d", resp.StatusCode)
	}
}

func TestContentServing(t *testing.T) {
	fx := newFixture(t, nil)
	// Seq 5 is staged: quarantine can still withdraw it, so its cache
	// lifetime is short and not immutable — and private behind the ACL.
	resp := fx.do("GET", "/feeds/market/BPS/files/5", bearer, nil, nil)
	body, _ := io.ReadAll(resp.Body)
	if string(body) != "c,d\ne,f\n" {
		t.Fatalf("content = %q", body)
	}
	if cc := resp.Header.Get("Cache-Control"); strings.Contains(cc, "immutable") ||
		!strings.Contains(cc, "private") || !strings.Contains(cc, "max-age=600") {
		t.Fatalf("staged content Cache-Control = %q", cc)
	}
	// Seq 3 is archived: closed history, long immutable lifetime.
	resp = fx.do("GET", "/feeds/market/BPS/files/3", bearer, nil, nil)
	if cc := resp.Header.Get("Cache-Control"); !strings.Contains(cc, "immutable") ||
		!strings.Contains(cc, "private") || !strings.Contains(cc, "max-age=86400") {
		t.Fatalf("archived content Cache-Control = %q", cc)
	}
	etag := resp.Header.Get("ETag")
	resp = fx.do("GET", "/feeds/market/BPS/files/3", bearer, nil, map[string]string{"If-None-Match": etag})
	if resp.StatusCode != 304 {
		t.Fatalf("content revalidation = %d", resp.StatusCode)
	}
}

// TestOpenModeCaching pins the open-plane (no principals) headers:
// with no ACL there is no credential for a shared cache to leak, so
// responses may be public and carry no Vary.
func TestOpenModeCaching(t *testing.T) {
	fx := newFixture(t, func(o *Options) { o.Principals = nil })
	resp := fx.do("GET", "/feeds/market/BPS/files/3", "", nil, nil)
	if cc := resp.Header.Get("Cache-Control"); !strings.Contains(cc, "public") {
		t.Fatalf("open-mode archived content Cache-Control = %q", cc)
	}
	if v := resp.Header.Get("Vary"); v != "" {
		t.Fatalf("open-mode Vary = %q", v)
	}
	full := fx.do("GET", "/feeds/market/BPS?limit=2", "", nil, nil)
	if cc := full.Header.Get("Cache-Control"); !strings.Contains(cc, "public") {
		t.Fatalf("open-mode full page Cache-Control = %q", cc)
	}
}

// TestQuarantinedMidRead models a file quarantined between a poller's
// page read and its content fetch: the id vanishes from the log, so
// the content read 404s rather than serving poisoned bytes.
func TestQuarantinedMidRead(t *testing.T) {
	fx := newFixture(t, nil)
	page := decodePage(t, fx.do("GET", "/feeds/market/BPS", bearer, nil, nil))
	if len(page.Entries) != 2 {
		t.Fatalf("page = %+v", page)
	}
	fx.setLog("market/BPS", page1Only(fx))
	if resp := fx.do("GET", "/feeds/market/BPS/files/5", bearer, nil, nil); resp.StatusCode != 404 {
		t.Fatalf("quarantined content status = %d", resp.StatusCode)
	}
}

func page1Only(fx *fixture) []Entry {
	fx.mu.Lock()
	defer fx.mu.Unlock()
	return fx.log["market/BPS"][:1]
}

// TestTornManifestTail serves a log backed by a real manifest whose
// day file has a torn final line (power cut mid-append): the torn
// record is skipped, the good ones serve.
func TestTornManifestTail(t *testing.T) {
	root := t.TempDir()
	day := filepath.Join(root, "market", "BPS")
	if err := os.MkdirAll(day, 0o755); err != nil {
		t.Fatal(err)
	}
	good1 := `{"id":3,"name":"one.csv","staged":"market/BPS/one.csv","feed":"market/BPS","size":4,"crc":170,"arrived":"2026-08-07T10:00:00Z","archived_at":"2026-08-07T11:00:00Z"}`
	good2 := `{"id":5,"name":"two.csv","staged":"market/BPS/two.csv","feed":"market/BPS","size":8,"crc":187,"arrived":"2026-08-07T10:01:00Z","archived_at":"2026-08-07T11:00:00Z"}`
	torn := `{"id":9,"name":"thr`
	if err := os.WriteFile(filepath.Join(day, "20260807.jsonl"),
		[]byte(good1+"\n"+good2+"\n"+torn), 0o644); err != nil {
		t.Fatal(err)
	}
	man, err := archive.OpenManifest(nil, root)
	if err != nil {
		t.Fatal(err)
	}
	fx := newFixture(t, func(o *Options) {
		o.Log = func(feed string, from uint64, limit int) ([]Entry, uint64) {
			var out []Entry
			for _, e := range man.EntriesSince(feed, 0) {
				out = append(out, Entry{Seq: e.ID, Name: e.Name, StagedPath: e.StagedPath,
					Size: e.Size, Checksum: e.Checksum, Time: e.Key(), Archived: true})
			}
			return pageOf(out, from, limit)
		}
	})
	page := decodePage(t, fx.do("GET", "/feeds/market/BPS", bearer, nil, nil))
	if page.Head != 5 || len(page.Entries) != 2 {
		t.Fatalf("page over torn manifest = %+v", page)
	}
	if resp := fx.do("GET", "/feeds/market/BPS/files/9", bearer, nil, nil); resp.StatusCode != 404 {
		t.Fatalf("torn entry content status = %d", resp.StatusCode)
	}
}

func TestStats(t *testing.T) {
	fx := newFixture(t, nil)
	resp := fx.do("GET", "/feeds/market/BPS/stats", bearer, nil, nil)
	var st feedStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Head != 5 || st.Files != 2 || st.Archived != 1 || st.Staged != 1 || st.Bytes != 12 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestIngest(t *testing.T) {
	fx := newFixture(t, func(o *Options) { o.MaxBody = 16 })
	if resp := fx.do("POST", "/feeds/market/BPS?name=bps_1.csv", bearer, []byte("x,y\n"), nil); resp.StatusCode != 201 {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}
	fx.mu.Lock()
	got := append([]string{}, fx.ingested...)
	fx.mu.Unlock()
	if !reflect.DeepEqual(got, []string{"bps_1.csv"}) {
		t.Fatalf("ingested = %v", got)
	}
	// Missing name.
	if resp := fx.do("POST", "/feeds/market/BPS", bearer, []byte("x"), nil); resp.StatusCode != 400 {
		t.Fatalf("nameless ingest status = %d", resp.StatusCode)
	}
	// Body over the cap.
	if resp := fx.do("POST", "/feeds/market/BPS?name=big.csv", bearer, bytes.Repeat([]byte("z"), 64), nil); resp.StatusCode != 413 {
		t.Fatalf("oversized ingest status = %d", resp.StatusCode)
	}
}

// TestOpenMode pins the no-principals configuration: the plane serves
// without credentials (lab use).
func TestOpenMode(t *testing.T) {
	fx := newFixture(t, func(o *Options) { o.Principals = nil })
	if resp := fx.do("GET", "/feeds/market/BPS", "", nil, nil); resp.StatusCode != 200 {
		t.Fatalf("open mode status = %d", resp.StatusCode)
	}
}

func TestMergeLogs(t *testing.T) {
	staged := []Entry{{Seq: 3}, {Seq: 5}, {Seq: 8}}
	archived := []Entry{{Seq: 3, Archived: true}, {Seq: 6, Archived: true}}
	got := MergeLogs(staged, archived)
	want := []uint64{3, 5, 6, 8}
	if len(got) != len(want) {
		t.Fatalf("merged = %+v", got)
	}
	for i, seq := range want {
		if got[i].Seq != seq {
			t.Fatalf("merged[%d] = %+v, want seq %d", i, got[i], seq)
		}
	}
	// The overlapping id keeps the archived copy.
	if !got[0].Archived {
		t.Fatal("overlap did not prefer the archived entry")
	}
}

func TestMetricsRegistered(t *testing.T) {
	fx := newFixture(t, nil)
	fx.do("GET", "/feeds/market/BPS", bearer, nil, nil)
	fx.do("GET", "/feeds/market/BPS", "Bearer wrong", nil, nil)
	var buf bytes.Buffer
	fx.reg.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		`bistro_http_requests_total{endpoint="log",code="200"} 1`,
		"bistro_http_auth_failures_total 1",
		"bistro_http_poll_latency_seconds_count 1",
		"bistro_http_bytes_total",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, out)
		}
	}
}

// TestContentGetAllocs: a content GET hands the open file to the
// connection's ReadFrom (sendfile for an *os.File) instead of copying
// it through a fresh 32 KiB buffer, and still counts its bytes out.
func TestContentGetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	dir := t.TempDir()
	const size = 1 << 20
	if err := os.WriteFile(filepath.Join(dir, "big"), bytes.Repeat([]byte("z"), size), 0o644); err != nil {
		t.Fatal(err)
	}
	fx := newFixture(t, func(o *Options) {
		o.Principals = nil
		o.Open = func(string) (io.ReadCloser, error) { return os.Open(filepath.Join(dir, "big")) }
	})
	fx.setLog("market/BPS", []Entry{{Seq: 1, Name: "big", StagedPath: "big", Size: size}})
	get := func() {
		resp := fx.do("GET", "/feeds/market/BPS/files/1", "", nil, nil)
		if n, err := io.Copy(io.Discard, resp.Body); err != nil || n != size {
			t.Fatalf("content GET read %d bytes, %v", n, err)
		}
		resp.Body.Close()
	}
	get()
	const gets = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < gets; i++ {
		get()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / gets
	t.Logf("a 1 MiB content GET allocates %d B", per)
	if per > 16<<10 {
		t.Errorf("a 1 MiB content GET allocates %d B, want under 16 KiB", per)
	}
	if out := fx.srv.met.Bytes.With("out").Value(); out < (gets+1)*size {
		t.Errorf("bistro_http_bytes_total{dir=\"out\"} = %d after %d GETs of %d B", out, gets+1, size)
	}
}
