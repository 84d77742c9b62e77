package experiments

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
	"sync/atomic"
	"syscall"
	"time"

	"bistro/internal/oracle"
	"bistro/internal/server"
)

// E19HTTPPull measures the HTTP pull data plane against the push
// protocol on one daemon: many stateless pollers paginating each
// feed's log by cursor versus push subscribers riding the delivery
// engine. Push pays per-subscriber server state (queues, receipts,
// retry timers) to get propagation bounded by the scheduler; pull
// holds zero per-client state — cost scales with request rate, not
// registered clients, and history pages are CDN-cacheable — at the
// price of up to one poll interval of propagation delay. The sweep
// checks the pull plane's exactly-once contract (no duplicate, no
// missed ids per poller) while measuring propagation and server CPU
// per client.
func E19HTTPPull(o Options) (Table, error) {
	t := Table{
		ID:     "E19",
		Title:  "HTTP pull data plane vs push subscribers on one daemon",
		Claim:  "feeds exposed as authenticated consumable HTTP logs serve thousands of cheap stateless pollers beside the push path; per-client cost is a poll request, not standing server state, and no poller misses or repeats a file id",
		Header: []string{"mode", "clients", "p50 propagation", "p99 propagation", "cpu/client", "requests", "dup", "missed"},
	}
	type rowCfg struct {
		mode    string
		clients int
	}
	rows := []rowCfg{
		{"push", 100},
		{"poll", 100},
		{"poll", 500},
		{"poll", 2000},
	}
	if o.Quick {
		rows = []rowCfg{{"push", 50}, {"poll", 50}, {"poll", 300}}
	}
	files := 6
	for _, rc := range rows {
		r, err := E19Trial(E19TrialConfig{
			Mode:         rc.mode,
			Clients:      rc.clients,
			Files:        files,
			FileSize:     2048,
			PollInterval: 150 * time.Millisecond,
		})
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			rc.mode,
			fmt.Sprintf("%d", rc.clients),
			ms(r.PropagationP50),
			ms(r.PropagationP99),
			ms(r.CPUPerClient),
			fmt.Sprintf("%d", r.Requests),
			fmt.Sprintf("%d", r.Duplicates),
			fmt.Sprintf("%d", r.Missed),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("every trial deposits %d files on one feed of a full daemon and waits until every client holds every file id", files),
		"poll clients paginate GET /feeds/<name>?from=<seq> with bearer auth at a 150ms interval; propagation includes up to one interval of polling delay by design",
		"push rows ride the delivery engine over an in-process transport; propagation is scheduler-bound",
		"cpu/client is process CPU (user + system time, getrusage) divided by clients for the trial; in-process clients inflate it, so read it as an upper bound on the server's share",
		"dup/missed count (client, file id) observations against exactly one — the no-transient-hole guarantee of the merged staging+manifest log view",
		"push rows hold standing per-subscriber state (queues, receipts); poll rows hold none — the daemon forgets each request as it answers it")
	if o.Quick {
		t.Notes = append(t.Notes, "quick mode caps the sweep at 300 pollers; the full run extends to 2000")
	}
	return t, nil
}

// E19TrialConfig parameterizes one pull-vs-push trial.
type E19TrialConfig struct {
	// Mode is "poll" (HTTP pollers) or "push" (protocol subscribers).
	Mode string
	// Clients is the poller or subscriber count.
	Clients int
	// Files and FileSize describe the deposited workload.
	Files    int
	FileSize int
	// PollInterval is each poller's sleep between pages.
	PollInterval time.Duration
}

// E19TrialResult carries one trial's measurements.
type E19TrialResult struct {
	// PropagationP50/P99 are deposit-to-client-observation latencies.
	PropagationP50 time.Duration
	PropagationP99 time.Duration
	// CPUPerClient is process CPU burned during the trial divided by
	// the client count.
	CPUPerClient time.Duration
	// Requests is the number of HTTP requests served (0 in push mode).
	Requests int64
	// Duplicates and Missed count (client, file id) observations beyond
	// or short of exactly once.
	Duplicates int
	Missed     int
}

// cpuSeconds is the CPU time this process has used, user and system.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// E19Trial runs one trial: a full daemon, Clients pollers or push
// subscribers, Files deposited live, everyone draining to completion.
func E19Trial(cfg E19TrialConfig) (*E19TrialResult, error) {
	root, err := tempRoot("e19")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	// The daemon: one feed, the HTTP plane with one principal, and
	// (push mode) one subscriber block per client.
	var text strings.Builder
	text.WriteString("feed TICKS { pattern \"t%i.csv\" }\n")
	text.WriteString("http {\n    listen \"127.0.0.1:0\"\n    principal poller {\n        token \"e19\"\n        feed TICKS\n    }\n}\n")
	trans := &recorder{ledger: oracle.New(), plane: oracle.HTTP}
	opts := server.Options{Root: root, ScanInterval: -1, NoSync: true}
	prefix := "poller"
	if cfg.Mode == "push" {
		trans.plane, opts.Transport, prefix = oracle.Push, trans, "s"
	}
	plane := trans.plane
	clients := make([]string, cfg.Clients)
	for i := range clients {
		clients[i] = fmt.Sprintf("%s%05d", prefix, i)
		if cfg.Mode == "push" {
			fmt.Fprintf(&text, "subscriber %s { dest \"in\" subscribe TICKS retry 20ms }\n", clients[i])
		}
	}
	srv, err := startServer(text.String(), opts)
	if err != nil {
		return nil, err
	}
	defer srv.Stop()

	payload := bytes.Repeat([]byte("abcdefghijklmnopqrstuvwxyz"), cfg.FileSize/26+1)[:cfg.FileSize]
	res := &E19TrialResult{}
	var wg sync.WaitGroup
	var requests atomic.Int64
	cpuBefore := cpuSeconds()
	if cfg.Mode == "poll" {
		addr := srv.HTTPAddr()
		client := &http.Client{Transport: &http.Transport{
			MaxIdleConns:        512,
			MaxIdleConnsPerHost: 512,
		}}
		for p, name := range clients {
			wg.Add(1)
			go func(p int, name string) {
				defer wg.Done()
				// Stagger phases so the fleet's polls spread over the
				// interval instead of arriving as one thundering herd.
				time.Sleep(time.Duration(p) * cfg.PollInterval / time.Duration(cfg.Clients))
				var from uint64
				deadline := time.Now().Add(120 * time.Second)
				for trans.ledger.Delivered(plane, name) < cfg.Files && time.Now().Before(deadline) {
					from = e19Poll(client, addr, from, name, trans, &requests)
					if trans.ledger.Delivered(plane, name) < cfg.Files {
						time.Sleep(cfg.PollInterval)
					}
				}
			}(p, name)
		}
		// Let the fleet settle into its polling rhythm, then feed it.
		time.Sleep(cfg.PollInterval)
	}

	// Deposit, then wait for every client to hold every file.
	sent := make(map[string]time.Time, cfg.Files)
	for i := 0; i < cfg.Files; i++ {
		name := fmt.Sprintf("t%d.csv", i)
		sent[name] = time.Now()
		if err := srv.Deposit(name, payload); err != nil {
			return nil, err
		}
		trans.ledger.Deposit(name, crc32.ChecksumIEEE(payload), true)
		time.Sleep(20 * time.Millisecond)
	}
	wg.Wait()
	if cfg.Mode == "push" {
		waitFor(120*time.Second, func() bool { return trans.ledger.Deliveries(plane) >= cfg.Clients*cfg.Files })
	}
	res.CPUPerClient = time.Duration((cpuSeconds() - cpuBefore) / float64(cfg.Clients) * float64(time.Second))
	res.Requests = requests.Load()
	res.Duplicates = trans.ledger.Duplicates(plane)
	res.Missed = trans.ledger.Undelivered(plane, clients...)
	trans.mu.Lock()
	defer trans.mu.Unlock()
	res.PropagationP50, res.PropagationP99 = percentiles(latencies(trans.arrivals, sent))
	return res, nil
}

// e19Poll reads one page of the feed's log from cursor from as poller
// name, counting the request in served once the server answers, and
// feeds its entries to trans. It returns the cursor to read from next.
func e19Poll(client *http.Client, addr string, from uint64, name string, trans *recorder, served *atomic.Int64) uint64 {
	req, err := http.NewRequest("GET", fmt.Sprintf("http://%s/feeds/TICKS?from=%d", addr, from), nil)
	if err != nil {
		return from
	}
	req.Header.Set("Authorization", "Bearer e19")
	resp, err := client.Do(req)
	if err != nil {
		return from
	}
	served.Add(1)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var page struct {
		Next    uint64 `json:"next"`
		Entries []struct {
			Name string `json:"name"`
			CRC  uint32 `json:"crc"`
		} `json:"entries"`
	}
	if json.Unmarshal(body, &page) != nil || resp.StatusCode != 200 {
		return from
	}
	for _, e := range page.Entries {
		trans.observe(name, e.Name, e.CRC, 0)
	}
	return page.Next
}
