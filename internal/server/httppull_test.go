package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"bistro/internal/oracle"
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
		CRC      uint32 `json:"crc"`
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
// file exactly once, with its content's CRC. The log view must never
// show a hole: a poller's cursor passing an id that is momentarily in
// neither the staging window nor the manifest, or still committing.
func TestHTTPChurnExactlyOnce(t *testing.T) {
	s := newServer(t, httpPullConfig, func(o *Options) { o.ExpiryInterval = -1 })
	addr := s.HTTPAddr()

	start := time.Date(2010, 9, 25, 0, 0, 0, 0, time.UTC)
	gen := workload.New(9, workload.FeedSpec{
		Name: "BPS", Sources: 3, Period: 5 * time.Minute,
		Convention: workload.ConvUnderscoreTS, SizeBytes: 64,
	})
	files := gen.Window(start, start.Add(time.Hour))

	ledger := oracle.New()
	pollers := make([]string, 6)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for p := range pollers {
		pollers[p] = fmt.Sprintf("poller%d", p)
		wg.Add(1)
		go func(poller string) {
			defer wg.Done()
			var from uint64
			poll := func() int {
				_, body := pullOnce(t, addr, fmt.Sprintf("/feeds/BPS?from=%d&limit=7", from))
				var page pullPage
				if json.Unmarshal(body, &page) != nil {
					return 0
				}
				ids := make([]uint64, len(page.Entries))
				for i, e := range page.Entries {
					ids[i] = e.Seq
					ledger.Deliver(oracle.HTTP, poller, e.Name, e.CRC)
				}
				ledger.Page(poller, ids...)
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
		}(pollers[p])
	}

	// Live ingest with expiry + compaction churning underneath: the
	// 2010 data times are ancient against the wall clock, so every
	// file is expiry-eligible the moment it is staged.
	for i, f := range files {
		if err := s.Deposit(f.Name, workload.Payload(f)); err != nil {
			t.Fatal(err)
		}
		ledger.Deposit(f.Name, crc32.ChecksumIEEE(workload.Payload(f)), true)
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

	// The settled log is the reference for holes: every deposited
	// file, by id.
	var settled []uint64
	for _, e := range s.FeedHTTPLog("BPS") {
		settled = append(settled, e.Seq)
	}
	if len(settled) != len(files) {
		t.Fatalf("settled log has %d ids, deposited %d", len(settled), len(files))
	}
	if n := ledger.Undelivered(oracle.HTTP, pollers...); n != 0 {
		t.Errorf("%d (poller, file) pairs never seen with the deposited content", n)
	}
	if n := ledger.Duplicates(oracle.HTTP); n != 0 {
		t.Errorf("%d (poller, file) pairs seen more than once", n)
	}
	if n := ledger.Strays(oracle.HTTP); n != 0 {
		t.Errorf("pollers saw %d files never deposited", n)
	}
	if n := ledger.Holes(settled); n != 0 {
		t.Errorf("poller cursors passed %d ids without reading them", n)
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
