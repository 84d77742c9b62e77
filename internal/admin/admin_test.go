package admin

import (
	"bytes"
	"compress/gzip"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"bistro/internal/metrics"
)

func startTest(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.Listen == "" {
		opts.Listen = "127.0.0.1:0"
	}
	s, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s
}

func TestEndpointsServe(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("bistro_test_total", "test").Inc()
	s := startTest(t, Options{Registry: reg, Status: func() any { return map[string]int{"feeds": 2} }})
	for path, want := range map[string]string{
		"/metrics": "bistro_test_total 1",
		"/healthz": "ok",
		"/readyz":  "ready",
		"/statusz": `"feeds": 2`,
	} {
		resp, err := http.Get("http://" + s.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || !strings.Contains(string(body), want) {
			t.Fatalf("%s: status %d body %q", path, resp.StatusCode, body)
		}
	}
}

// TestSlowLorisCutOff pins the hardened timeouts: a dribbled partial
// request is disconnected once ReadHeaderTimeout elapses.
func TestSlowLorisCutOff(t *testing.T) {
	s := startTest(t, Options{
		ReadHeaderTimeout: 150 * time.Millisecond,
		ReadTimeout:       150 * time.Millisecond,
	})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHos")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	buf := make([]byte, 256)
	start := time.Now()
	for {
		if _, err := conn.Read(buf); err != nil {
			if nerr, ok := err.(net.Error); ok && nerr.Timeout() {
				t.Fatal("connection still open 3s after a 150ms header timeout")
			}
			break
		}
		if time.Since(start) > 3*time.Second {
			t.Fatal("server kept responding to a stalled request")
		}
	}
}

// get fetches path from s and returns the status and body.
func get(t *testing.T, s *Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get("http://" + s.Addr() + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return resp.StatusCode, body
}

// TestPprofHeap checks that the heap profile is served and is a
// gzipped pprof protobuf carrying the heap sample types.
func TestPprofHeap(t *testing.T) {
	s := startTest(t, Options{})
	status, body := get(t, s, "/debug/pprof/heap")
	if status != 200 {
		t.Fatalf("heap: status %d body %q", status, body)
	}
	zr, err := gzip.NewReader(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("heap profile is not gzipped: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("heap profile: %v", err)
	}
	for _, sampleType := range []string{"alloc_objects", "inuse_space"} {
		if !bytes.Contains(raw, []byte(sampleType)) {
			t.Fatalf("heap profile lacks sample type %s", sampleType)
		}
	}
	if status, body := get(t, s, "/debug/pprof/"); status != 200 || !bytes.Contains(body, []byte("goroutine")) {
		t.Fatalf("index: status %d body %q", status, body)
	}
	if status, _ := get(t, s, "/debug/pprof/cmdline"); status != 200 {
		t.Fatalf("cmdline: status %d", status)
	}
}

// TestPprofCPUProfileWithinWriteTimeout runs a one-second CPU profile
// against a 2 s WriteTimeout: it completes with a whole gzipped
// profile.
func TestPprofCPUProfileWithinWriteTimeout(t *testing.T) {
	s := startTest(t, Options{WriteTimeout: 2 * time.Second})
	status, body := get(t, s, "/debug/pprof/profile?seconds=1")
	if status != 200 {
		t.Fatalf("status %d body %q", status, body)
	}
	zr, err := gzip.NewReader(bytes.NewReader(body))
	if err == nil {
		_, err = io.ReadAll(zr)
	}
	if err != nil {
		t.Fatalf("CPU profile is not whole: %v", err)
	}
}

// TestPprofRunsCappedByWriteTimeout checks that a CPU profile or trace
// asked to run as long as WriteTimeout or longer, or for pprof's 30 s
// default, is refused at once instead of holding the connection.
func TestPprofRunsCappedByWriteTimeout(t *testing.T) {
	s := startTest(t, Options{WriteTimeout: 2 * time.Second})
	for _, path := range []string{
		"/debug/pprof/profile?seconds=2",
		"/debug/pprof/profile?seconds=86400",
		"/debug/pprof/profile",
		"/debug/pprof/trace?seconds=2.5",
		"/debug/pprof/trace?seconds=86400",
	} {
		start := time.Now()
		status, body := get(t, s, path)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d body %q, want 400", path, status, body)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("%s: refusal took %s", path, d)
		}
	}
	if status, body := get(t, s, "/debug/pprof/trace?seconds=0.1"); status != 200 {
		t.Errorf("short trace: status %d body %q", status, body)
	}
}
