package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"bistro/internal/workload"
)

const httpPullConfig = `
window 1h
archive "arch"
feed BPS { pattern "BPS_POLLER%i_%Y%m%d%H_%M.csv.gz" }
subscriber wh { dest "in" subscribe BPS retry 20ms }

http {
    listen "127.0.0.1:0"
    principal tool {
        token "t0k3n"
        feed BPS
    }
}
`

type pullPage struct {
	Feed    string `json:"feed"`
	From    uint64 `json:"from"`
	Head    uint64 `json:"head"`
	Next    uint64 `json:"next"`
	Entries []struct {
		Seq      uint64 `json:"seq"`
		Name     string `json:"name"`
		Size     int64  `json:"size"`
		Archived bool   `json:"archived"`
	} `json:"entries"`
}

func pullOnce(t *testing.T, addr, path string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("GET", "http://"+addr+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer t0k3n")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestHTTPPullEndToEnd drives the whole wired plane: deposit through
// the landing pipeline, poll the log, fetch content, push a file in
// over HTTP, and read stats.
func TestHTTPPullEndToEnd(t *testing.T) {
	s := newServer(t, httpPullConfig, nil)
	addr := s.HTTPAddr()
	if addr == "" {
		t.Fatal("no HTTP data plane address")
	}
	if err := s.Deposit("BPS_POLLER1_2010092504_51.csv.gz", []byte("a,b\n")); err != nil {
		t.Fatal(err)
	}
	resp, body := pullOnce(t, addr, "/feeds/BPS")
	if resp.StatusCode != 200 {
		t.Fatalf("log status %d: %s", resp.StatusCode, body)
	}
	var page pullPage
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Entries) != 1 || page.Entries[0].Name != "BPS_POLLER1_2010092504_51.csv.gz" {
		t.Fatalf("page = %+v", page)
	}
	resp, body = pullOnce(t, addr, fmt.Sprintf("/feeds/BPS/files/%d", page.Entries[0].Seq))
	if resp.StatusCode != 200 || string(body) != "a,b\n" {
		t.Fatalf("content status %d body %q", resp.StatusCode, body)
	}

	// Push a second file in over HTTP: it flows through the same
	// landing -> classify -> staging pipeline and shows up in the log.
	req, err := http.NewRequest("POST", "http://"+addr+"/feeds/BPS?name=BPS_POLLER2_2010092504_52.csv.gz",
		bytes.NewReader([]byte("c,d\n")))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer t0k3n")
	presp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != 201 {
		t.Fatalf("ingest status %d", presp.StatusCode)
	}
	resp, body = pullOnce(t, addr, fmt.Sprintf("/feeds/BPS?from=%d", page.Next))
	if resp.StatusCode != 200 {
		t.Fatalf("second poll status %d", resp.StatusCode)
	}
	var page2 pullPage
	if err := json.Unmarshal(body, &page2); err != nil {
		t.Fatal(err)
	}
	if len(page2.Entries) != 1 || page2.Entries[0].Name != "BPS_POLLER2_2010092504_52.csv.gz" {
		t.Fatalf("page2 = %+v", page2)
	}

	resp, body = pullOnce(t, addr, "/feeds/BPS/stats")
	if resp.StatusCode != 200 {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var st struct {
		Files int `json:"files"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Files != 2 {
		t.Fatalf("stats = %s", body)
	}

	// Wrong token against the live plane.
	req, _ = http.NewRequest("GET", "http://"+addr+"/feeds/BPS", nil)
	req.Header.Set("Authorization", "Bearer wrong")
	bad, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != 401 {
		t.Fatalf("bad token status %d", bad.StatusCode)
	}
}

// TestHTTPChurnExactlyOnce is the race-mode churn guarantee: pollers
// paginating by cursor against live ingest — while expiry archives
// staged files and compaction folds their receipts — observe every
// file id exactly once. The log view must never show a transient hole
// (a poller's cursor passing an id that is momentarily in neither the
// staging window nor the manifest).
func TestHTTPChurnExactlyOnce(t *testing.T) {
	s := newServer(t, httpPullConfig, func(o *Options) { o.ExpiryInterval = -1 })
	addr := s.HTTPAddr()

	start := time.Date(2010, 9, 25, 0, 0, 0, 0, time.UTC)
	gen := workload.New(9, workload.FeedSpec{
		Name: "BPS", Sources: 3, Period: 5 * time.Minute,
		Convention: workload.ConvUnderscoreTS, SizeBytes: 64,
	})
	files := gen.Window(start, start.Add(time.Hour))

	const pollers = 6
	var wg sync.WaitGroup
	stop := make(chan struct{})
	seen := make([]map[uint64]int, pollers)
	for p := 0; p < pollers; p++ {
		seen[p] = make(map[uint64]int)
		wg.Add(1)
		go func(mine map[uint64]int) {
			defer wg.Done()
			var from uint64
			poll := func() int {
				_, body := pullOnce(t, addr, fmt.Sprintf("/feeds/BPS?from=%d&limit=7", from))
				var page pullPage
				if json.Unmarshal(body, &page) != nil {
					return 0
				}
				for _, e := range page.Entries {
					mine[e.Seq]++
				}
				from = page.Next
				return len(page.Entries)
			}
			for {
				select {
				case <-stop:
					// Catch-up: page to the settled head so slow
					// pollers drain the tail.
					for poll() > 0 {
					}
					return
				default:
					poll()
				}
			}
		}(seen[p])
	}

	// Live ingest with expiry + compaction churning underneath: the
	// 2010 data times are ancient against the wall clock, so every
	// file is expiry-eligible the moment it is staged.
	for i, f := range files {
		if err := s.Deposit(f.Name, workload.Payload(f)); err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 {
			if _, err := s.Archiver().ExpireOnce(); err != nil {
				t.Fatal(err)
			}
			if _, err := s.CompactReceipts(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Compaction folds delivered receipts away as it runs, so the
	// delivered count is not a usable progress signal; wait for the
	// delivery queues to drain instead.
	waitLong(t, "queues drained", func() bool {
		sched := s.Engine().Scheduler()
		for i := range sched.Partitions() {
			if sched.QueueLen(i, 0)+sched.QueueLen(i, 1) > 0 {
				return false
			}
		}
		return true
	})
	if _, err := s.Archiver().ExpireOnce(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CompactReceipts(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	// The settled log is the reference: every deposited file, by id.
	ref := make(map[uint64]bool)
	for _, e := range s.FeedHTTPLog("BPS") {
		ref[e.Seq] = true
	}
	if len(ref) != len(files) {
		t.Fatalf("settled log has %d ids, deposited %d", len(ref), len(files))
	}
	for p, mine := range seen {
		for id, n := range mine {
			if n != 1 {
				t.Errorf("poller %d saw id %d %d times", p, id, n)
			}
			if !ref[id] {
				t.Errorf("poller %d saw unknown id %d", p, id)
			}
		}
		if len(mine) != len(ref) {
			t.Errorf("poller %d saw %d ids, want %d", p, len(mine), len(ref))
		}
	}
}

// TestHTTPOversizeIngestLandsNothing: a POST body over max_body streams
// into landing until the cap, then answers 413 and leaves neither the
// file nor its temp behind, and nothing is ingested.
func TestHTTPOversizeIngestLandsNothing(t *testing.T) {
	s := newServer(t, strings.Replace(httpPullConfig, `listen "127.0.0.1:0"`, `listen "127.0.0.1:0" max_body 65536`, 1), nil)
	req, err := http.NewRequest("POST", "http://"+s.HTTPAddr()+"/feeds/BPS?name=BPS_POLLER2_2010092504_52.csv.gz",
		bytes.NewReader(bytes.Repeat([]byte("c,d\n"), 64<<10)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer t0k3n")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize ingest status %d, want 413", resp.StatusCode)
	}
	if entries, _ := os.ReadDir(s.land.Dir()); len(entries) != 0 {
		t.Fatalf("landing holds %v", entries)
	}
	if files := s.Store().Stats().Files; files != 0 {
		t.Fatalf("%d files ingested, want 0", files)
	}
}
