package httpfeed

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"bistro/internal/metrics"
)

// Entry is one record in a feed's consumable log: an id-ordered view
// over the staging window and the archive manifest. Seq is the
// store-assigned file id, so cursors are stable across restarts and
// across the staging-to-archive transition.
type Entry struct {
	Seq        uint64
	Name       string
	StagedPath string
	Size       int64
	Checksum   uint32
	// Time is the log's time axis: the file's data time when the
	// pattern carried one, else its arrival — the same key the archive
	// partitions by.
	Time time.Time
	// Archived marks entries served from the manifest rather than the
	// staging window.
	Archived bool
}

// MergeLogs merges the staging-window and archived views of one feed's
// log into a single id-ordered slice, deduplicating by seq. During the
// staging-to-archive handoff a file is briefly visible in both views;
// the archived entry wins so the page reports where the bytes live.
// Both inputs must be sorted by Seq.
func MergeLogs(staged, archived []Entry) []Entry {
	out := make([]Entry, 0, len(staged)+len(archived))
	i, j := 0, 0
	for i < len(staged) && j < len(archived) {
		switch {
		case staged[i].Seq < archived[j].Seq:
			out = append(out, staged[i])
			i++
		case staged[i].Seq > archived[j].Seq:
			out = append(out, archived[j])
			j++
		default:
			out = append(out, archived[j])
			i++
			j++
		}
	}
	out = append(out, staged[i:]...)
	out = append(out, archived[j:]...)
	return out
}

// Options configures the HTTP data plane. The function seams decouple
// it from the store, archiver, and ingest pipeline the same way the
// delivery engine's do.
type Options struct {
	// Listen is the bind address ("127.0.0.1:0" for ephemeral).
	Listen string
	// Feeds is the set of leaf feed paths served; anything else is 404.
	Feeds []string
	// Principals is the ACL set. Empty leaves the plane open (lab use).
	Principals []*Principal
	// MaxBody caps POST ingest bodies in bytes (default 32 MiB).
	MaxBody int64
	// Registry receives bistro_http_* metrics when set.
	Registry *metrics.Registry
	// Clock supplies time (defaults to time.Now).
	Clock func() time.Time

	// Log returns one page of a feed's consumable log, the merged
	// staging + archive view (see MergeLogs): at most limit entries
	// with Seq >= from, sorted by Seq, and the log's head (its highest
	// Seq, 0 when empty). A page shorter than limit ends the log.
	Log func(feed string, from uint64, limit int) (page []Entry, head uint64)
	// Open reads a file's content by staged-relative path, falling back
	// to the archive when the staged copy has expired.
	Open func(stagedPath string) (io.ReadCloser, error)
	// Ingest deposits a pushed file streamed from body, returning once
	// its receipt is durable; when reading body fails it must land
	// nothing. Nil disables POST (405).
	Ingest func(name string, body io.Reader) error
	// Resolve returns the feeds a deposited name would route to
	// (classification only, no side effects). Required when Ingest is
	// set: the pipeline routes deposits by name pattern, not by URL, so
	// POST /feeds/<feed> must verify the name actually routes to <feed>
	// and to nothing outside the caller's ACL before the bytes land.
	Resolve func(name string) []string

	// Server hardening knobs, overridable so the slow-loris regression
	// test can use tiny values. Zero means the package default.
	ReadHeaderTimeout time.Duration
	ReadTimeout       time.Duration
	WriteTimeout      time.Duration
	MaxHeaderBytes    int
}

const (
	defaultMaxBody  = 32 << 20
	defaultLimit    = 512
	maxLimit        = 4096
	defaultRHT      = 5 * time.Second
	defaultReadTO   = 30 * time.Second
	defaultWriteTO  = 2 * time.Minute
	defaultMaxHdr   = 64 << 10
	wwwAuthenticate = `Bearer realm="bistro"`

	// Cache lifetimes. Archived entries are closed history — the
	// manifest never withdraws an id — so they get long TTLs. Staged
	// entries can still be withdrawn by quarantine, so pages and content
	// that include them get a short TTL bounding how long a cache can
	// keep serving a withdrawn id (docs/HTTP.md "Caching semantics").
	archivedPageMaxAge    = 3600
	stagedPageMaxAge      = 300
	archivedContentMaxAge = 86400
	stagedContentMaxAge   = 600
)

// Server is a running HTTP data plane.
type Server struct {
	opts  Options
	feeds map[string]bool
	met   *Metrics
	ln    net.Listener
	srv   *http.Server

	mu     sync.Mutex
	closed bool
}

// Start binds the listener and begins serving.
func Start(opts Options) (*Server, error) {
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	if opts.MaxBody <= 0 {
		opts.MaxBody = defaultMaxBody
	}
	if opts.ReadHeaderTimeout <= 0 {
		opts.ReadHeaderTimeout = defaultRHT
	}
	if opts.ReadTimeout <= 0 {
		opts.ReadTimeout = defaultReadTO
	}
	if opts.WriteTimeout <= 0 {
		opts.WriteTimeout = defaultWriteTO
	}
	if opts.MaxHeaderBytes <= 0 {
		opts.MaxHeaderBytes = defaultMaxHdr
	}
	if opts.Ingest != nil && opts.Resolve == nil {
		return nil, fmt.Errorf("httpfeed: Ingest requires Resolve — deposits route by name pattern and must be checked against the URL feed")
	}
	s := &Server{opts: opts, feeds: make(map[string]bool, len(opts.Feeds))}
	for _, f := range opts.Feeds {
		s.feeds[f] = true
	}
	if opts.Registry != nil {
		s.met = NewMetrics(opts.Registry)
	}
	ln, err := net.Listen("tcp", opts.Listen)
	if err != nil {
		return nil, fmt.Errorf("httpfeed: listen: %w", err)
	}
	s.ln = ln
	mux := http.NewServeMux()
	mux.HandleFunc("/feeds/", s.handle)
	s.srv = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: opts.ReadHeaderTimeout,
		ReadTimeout:       opts.ReadTimeout,
		WriteTimeout:      opts.WriteTimeout,
		MaxHeaderBytes:    opts.MaxHeaderBytes,
	}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Stop closes the listener and in-flight connections.
func (s *Server) Stop() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	return s.srv.Close()
}

// statusWriter records the status code and body bytes for metrics.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// ReadFrom hands a body to net/http's own ReadFrom, which sends an
// *os.File with sendfile. io.Copy would reach it only through the
// file's WriteTo, which hides the file and copies through a fresh
// 32 KiB buffer.
func (w *statusWriter) ReadFrom(r io.Reader) (int64, error) {
	n, err := w.ResponseWriter.(io.ReaderFrom).ReadFrom(r)
	w.bytes += n
	return n, err
}

// handle authenticates, routes, and dispatches one request. Outcome
// order: 401 (bad credential) before 404 (unknown path) before 403
// (feed outside the principal's ACL) before 405 (wrong method).
func (s *Server) handle(w http.ResponseWriter, r *http.Request) {
	sw := &statusWriter{ResponseWriter: w}
	endpoint := "other"
	start := s.opts.Clock()
	defer func() {
		if s.met != nil {
			code := sw.code
			if code == 0 {
				code = http.StatusOK
			}
			s.met.Requests.With(endpoint, strconv.Itoa(code)).Inc()
			s.met.Bytes.With("out").Add(sw.bytes)
			if endpoint == "log" {
				s.met.PollLatency.Observe(s.opts.Clock().Sub(start).Seconds())
			}
		}
	}()

	if len(s.opts.Principals) > 0 {
		// Responses differ per credential (ACLs), so any cache that
		// stores one must key on the Authorization header.
		sw.Header().Set("Vary", "Authorization")
	}
	pr, ok := s.authorize(sw, r)
	if !ok {
		return
	}

	feed, sub, seq, ok := s.route(strings.TrimPrefix(r.URL.Path, "/feeds/"))
	if !ok {
		writeErr(sw, http.StatusNotFound, "no such feed or file")
		return
	}
	if pr != nil && !pr.Allowed(feed) {
		writeErr(sw, http.StatusForbidden, "feed not in principal ACL")
		return
	}
	switch sub {
	case "log":
		switch r.Method {
		case http.MethodGet:
			endpoint = "log"
			s.serveLog(sw, r, feed)
		case http.MethodPost:
			endpoint = "ingest"
			s.serveIngest(sw, r, feed, pr)
		default:
			writeErr(sw, http.StatusMethodNotAllowed, "method not allowed")
		}
	case "stats":
		if r.Method != http.MethodGet {
			writeErr(sw, http.StatusMethodNotAllowed, "method not allowed")
			return
		}
		endpoint = "stats"
		s.serveStats(sw, feed)
	case "file":
		if r.Method != http.MethodGet {
			writeErr(sw, http.StatusMethodNotAllowed, "method not allowed")
			return
		}
		endpoint = "content"
		s.serveContent(sw, r, feed, seq)
	}
}

// authorize checks the request credential. It returns the matched
// principal (nil when the plane runs open) and whether to proceed.
func (s *Server) authorize(w http.ResponseWriter, r *http.Request) (*Principal, bool) {
	if len(s.opts.Principals) == 0 {
		return nil, true
	}
	header := r.Header.Get("Authorization")
	if header == "" {
		s.authFail(w, "missing credentials")
		return nil, false
	}
	user, token, err := ParseAuthorization(header)
	if err != nil {
		s.authFail(w, err.Error())
		return nil, false
	}
	pr := authenticate(s.opts.Principals, user, token)
	if pr == nil {
		s.authFail(w, "unknown credentials")
		return nil, false
	}
	return pr, true
}

func (s *Server) authFail(w http.ResponseWriter, msg string) {
	if s.met != nil {
		s.met.AuthFailures.Inc()
	}
	w.Header().Set("WWW-Authenticate", wwwAuthenticate)
	writeErr(w, http.StatusUnauthorized, msg)
}

// route resolves a path remainder (after /feeds/) against the feed
// set. Feed paths themselves contain slashes, so the full remainder is
// tried as a feed first, then the /stats and /files/<seq> suffixes.
func (s *Server) route(rest string) (feed, sub string, seq uint64, ok bool) {
	if s.feeds[rest] {
		return rest, "log", 0, true
	}
	if prefix, found := strings.CutSuffix(rest, "/stats"); found && s.feeds[prefix] {
		return prefix, "stats", 0, true
	}
	if i := strings.LastIndex(rest, "/files/"); i > 0 {
		prefix, tail := rest[:i], rest[i+len("/files/"):]
		if s.feeds[prefix] && isDigits(tail) {
			n, err := strconv.ParseUint(tail, 10, 64)
			if err == nil {
				return prefix, "file", n, true
			}
		}
	}
	return "", "", 0, false
}

// logPage is the GET /feeds/<name> response body.
type logPage struct {
	Feed string `json:"feed"`
	// From is the resolved starting sequence of this page.
	From uint64 `json:"from"`
	// Head is the highest sequence currently in the log (0 when empty).
	Head uint64 `json:"head"`
	// Next is the cursor for the next poll: pass from=<next>.
	Next    uint64      `json:"next"`
	Entries []wireEntry `json:"entries"`
}

type wireEntry struct {
	Seq      uint64    `json:"seq"`
	Name     string    `json:"name"`
	Size     int64     `json:"size"`
	Checksum uint32    `json:"crc"`
	Time     time.Time `json:"time"`
	Archived bool      `json:"archived,omitempty"`
}

func (s *Server) serveLog(w http.ResponseWriter, r *http.Request, feed string) {
	q := r.URL.Query()
	from, err := ParseFrom(q.Get("from"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	limit := defaultLimit
	if ls := q.Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n < 1 {
			writeErr(w, http.StatusBadRequest, "bad limit")
			return
		}
		limit = n
	}
	if limit > maxLimit {
		limit = maxLimit
	}

	var entries []Entry
	var head uint64
	if from.BySeq {
		entries, head = s.opts.Log(feed, from.Seq, limit)
		if from.Seq > head+1 {
			// The cursor points past the tail: the poller is ahead of
			// this server (stale standby, fat-fingered seq). 416 rather
			// than an empty page so the client can tell "caught up"
			// from "wrong log".
			w.Header().Set("Content-Range", fmt.Sprintf("seq */%d", head))
			writeErr(w, http.StatusRequestedRangeNotSatisfiable,
				fmt.Sprintf("from %d is past head %d", from.Seq, head))
			return
		}
	} else {
		// Data times are NOT monotone in seq (late-arriving files carry
		// older data times), so a binary search over Time would land on
		// an arbitrary seq and silently skip entries. Scan for the
		// earliest seq whose time qualifies: no entry with Time >= from
		// is ever skipped, at the cost of the page also carrying any
		// older-timed stragglers after it.
		head = s.scan(feed, func(e Entry) bool {
			if len(entries) > 0 || !e.Time.Before(from.Time) {
				entries = append(entries, e)
			}
			return len(entries) < limit
		})
	}

	page := logPage{Feed: feed, Head: head}
	if from.BySeq {
		page.From = from.Seq
	} else if len(entries) > 0 {
		page.From = entries[0].Seq
	} else {
		page.From = head + 1
	}
	page.Next = page.From
	page.Entries = make([]wireEntry, len(entries))
	for i, e := range entries {
		page.Entries[i] = wireEntry{Seq: e.Seq, Name: e.Name, Size: e.Size,
			Checksum: e.Checksum, Time: e.Time, Archived: e.Archived}
	}
	if len(entries) > 0 {
		page.Next = entries[len(entries)-1].Seq + 1
	}

	// Full pages are history — their seq set only changes if quarantine
	// withdraws a staged entry — so caches may keep them: long for
	// all-archived pages (the manifest never withdraws), short for pages
	// still carrying staged entries. Partial (tail) pages revalidate:
	// the ETag covers head so an idle poll costs a 304.
	full := len(entries) == limit
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d|%d|%d", feed, page.From, page.Next, page.Head, len(entries))
	etag := fmt.Sprintf(`"log-%016x"`, h.Sum64())
	if full {
		maxAge := archivedPageMaxAge
		for _, e := range entries {
			if !e.Archived {
				maxAge = stagedPageMaxAge
				break
			}
		}
		w.Header().Set("Cache-Control", s.cacheControl(maxAge, false))
	} else {
		w.Header().Set("Cache-Control", "no-cache")
	}
	w.Header().Set("ETag", etag)
	if len(entries) > 0 {
		w.Header().Set("Last-Modified", entries[len(entries)-1].Time.UTC().Format(http.TimeFormat))
	}
	if matchETag(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	writeJSON(w, http.StatusOK, page)
}

// feedStats is the GET /feeds/<name>/stats response body.
type feedStats struct {
	Feed     string    `json:"feed"`
	Head     uint64    `json:"head"`
	Files    int       `json:"files"`
	Staged   int       `json:"staged"`
	Archived int       `json:"archived"`
	Bytes    int64     `json:"bytes"`
	AsOf     time.Time `json:"as_of"`
}

func (s *Server) serveStats(w http.ResponseWriter, feed string) {
	st := feedStats{Feed: feed, AsOf: s.opts.Clock().UTC()}
	st.Head = s.scan(feed, func(e Entry) bool {
		st.Files++
		st.Bytes += e.Size
		if e.Archived {
			st.Archived++
		} else {
			st.Staged++
		}
		return true
	})
	w.Header().Set("Cache-Control", "no-cache")
	writeJSON(w, http.StatusOK, st)
}

// scan calls fn on the feed's log entries in seq order until fn returns
// false, reading the log in maxLimit pages so that no single read
// covers the whole history. It returns the head of the last page read.
func (s *Server) scan(feed string, fn func(Entry) bool) uint64 {
	var from uint64
	for {
		page, head := s.opts.Log(feed, from, maxLimit)
		for _, e := range page {
			if !fn(e) {
				return head
			}
		}
		if len(page) < maxLimit {
			return head
		}
		from = page[len(page)-1].Seq + 1
	}
}

func (s *Server) serveContent(w *statusWriter, r *http.Request, feed string, seq uint64) {
	page, _ := s.opts.Log(feed, seq, 1)
	if len(page) == 0 || page[0].Seq != seq {
		// Unknown, expired-and-gone, or quarantined (the log excludes
		// quarantined ids).
		writeErr(w, http.StatusNotFound, "no such file in feed")
		return
	}
	e := page[0]
	// Bytes for an id never change, but a staged id can still be
	// withdrawn by quarantine — only archived content is truly closed
	// history, so only it gets the long immutable lifetime.
	etag := fmt.Sprintf(`"%d-%08x"`, e.Seq, e.Checksum)
	w.Header().Set("ETag", etag)
	if e.Archived {
		w.Header().Set("Cache-Control", s.cacheControl(archivedContentMaxAge, true))
	} else {
		w.Header().Set("Cache-Control", s.cacheControl(stagedContentMaxAge, false))
	}
	w.Header().Set("Last-Modified", e.Time.UTC().Format(http.TimeFormat))
	if matchETag(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	rc, err := s.opts.Open(e.StagedPath)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			writeErr(w, http.StatusNotFound, "content no longer available")
		} else {
			writeErr(w, http.StatusInternalServerError, "content open failed")
		}
		return
	}
	defer rc.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(e.Size, 10))
	w.WriteHeader(http.StatusOK)
	w.ReadFrom(rc)
}

func (s *Server) serveIngest(w http.ResponseWriter, r *http.Request, feed string, pr *Principal) {
	if s.opts.Ingest == nil {
		writeErr(w, http.StatusMethodNotAllowed, "ingest disabled")
		return
	}
	name := r.URL.Query().Get("name")
	if name == "" {
		writeErr(w, http.StatusBadRequest, "name query parameter required")
		return
	}
	// The URL names the feed the caller is authorized to write, but the
	// pipeline routes deposits by classifying `name`. Resolve the
	// routing first and refuse anything that would land outside that
	// authority — otherwise a principal whose ACL covers only feed A
	// could POST to /feeds/A with a name matching feed B's pattern and
	// write into B.
	targets := s.opts.Resolve(name)
	routed := false
	for _, t := range targets {
		if t == feed {
			routed = true
		}
		if pr != nil && !pr.Allowed(t) {
			writeErr(w, http.StatusForbidden,
				fmt.Sprintf("name routes to feed %q outside principal ACL", t))
			return
		}
	}
	if !routed {
		writeErr(w, http.StatusBadRequest,
			fmt.Sprintf("name %q does not route to feed %q", name, feed))
		return
	}
	body := &countingReader{r: http.MaxBytesReader(w, r.Body, s.opts.MaxBody)}
	err := s.opts.Ingest(name, body)
	if body.err != nil {
		var mbe *http.MaxBytesError
		if errors.As(body.err, &mbe) {
			writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("body exceeds %d bytes", s.opts.MaxBody))
		} else {
			writeErr(w, http.StatusBadRequest, "read body failed")
		}
		return
	}
	if s.met != nil {
		s.met.Bytes.With("in").Add(body.n)
	}
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{"ok": true, "name": name})
}

// countingReader counts the bytes read from a request body and keeps
// the first read error, telling a failed upload from a failed ingest.
type countingReader struct {
	r   io.Reader
	n   int64
	err error
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	if err != nil && err != io.EOF && c.err == nil {
		c.err = err
	}
	return n, err
}

// cacheControl renders a Cache-Control value for a cacheable response.
// Behind the ACL responses are private: a shared cache or CDN that
// stored one would re-serve a principal's authorized read to clients
// with no credentials at all, turning the cache into an auth bypass.
// Only the open (no-principals) plane lets shared caches participate.
func (s *Server) cacheControl(maxAge int, immutable bool) string {
	scope := "public"
	if len(s.opts.Principals) > 0 {
		scope = "private"
	}
	v := fmt.Sprintf("%s, max-age=%d", scope, maxAge)
	if immutable {
		v += ", immutable"
	}
	return v
}

// matchETag implements the If-None-Match comparison for the strong
// ETags this plane emits (list form and the * wildcard included).
func matchETag(header, etag string) bool {
	if header == "" {
		return false
	}
	if header == "*" {
		return true
	}
	for _, part := range strings.Split(header, ",") {
		if strings.TrimSpace(part) == etag {
			return true
		}
	}
	return false
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
