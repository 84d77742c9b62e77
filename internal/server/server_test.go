package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bistro/internal/config"
	"bistro/internal/delivery"
	"bistro/internal/diskfault"
	"bistro/internal/feedlog"
	"bistro/internal/protocol"
	"bistro/internal/sourceclient"
	"bistro/internal/subclient"
)

const testConfig = `
window 72h

feedgroup SNMP {
    feed BPS {
        pattern "BPS_poller%i_%Y%m%d%H%M.csv"
        normalize "%Y/%m/%d/BPS_poller%i_%H%M.csv"
    }
    feed CPU { pattern "CPU_POLL%i_%Y%m%d%H%M.txt" }
}

subscriber wh {
    dest "wh-in"
    subscribe SNMP
}
`

func mustConfig(t *testing.T, src string) *config.Config {
	t.Helper()
	cfg, err := config.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func newServer(t *testing.T, cfgSrc string, mutate func(*Options)) *Server {
	t.Helper()
	opts := Options{
		Config:       mustConfig(t, cfgSrc),
		Root:         t.TempDir(),
		ScanInterval: -1, // tests drive ingest explicitly
		NoSync:       true,
	}
	if mutate != nil {
		mutate(&opts)
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEndToEndLocalDelivery(t *testing.T) {
	s := newServer(t, testConfig, nil)
	if err := s.Deposit("BPS_poller1_201009250451.csv", []byte("a,b\n1,2\n")); err != nil {
		t.Fatal(err)
	}
	// Normalized into daily directories per the feed's template, then
	// delivered under the subscriber's dest.
	want := filepath.Join(s.root, "wh-in", "SNMP", "BPS", "2010", "09", "25", "BPS_poller1_0451.csv")
	waitFor(t, "delivered file", func() bool {
		_, err := os.Stat(want)
		return err == nil
	})
	got, _ := os.ReadFile(want)
	if string(got) != "a,b\n1,2\n" {
		t.Fatalf("content = %q", got)
	}
	// Landing is empty; receipts recorded.
	entries, _ := os.ReadDir(s.land.Dir())
	if len(entries) != 0 {
		t.Fatalf("landing not empty: %v", entries)
	}
	if stats := s.Store().Stats(); stats.Files != 1 {
		t.Fatalf("store stats = %+v", stats)
	}
	fs, ok := s.Logger().Stats("SNMP/BPS")
	if !ok || fs.Files != 1 {
		t.Fatalf("feed stats = %+v", fs)
	}
}

func TestUnmatchedFilesQuarantined(t *testing.T) {
	s := newServer(t, testConfig, nil)
	if err := s.Deposit("random-junk.tmp", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(s.stage, "_unmatched", "random-junk.tmp")); err != nil {
		t.Fatal("unmatched file not quarantined")
	}
	if s.Logger().Unmatched() != 1 {
		t.Fatal("unmatched not counted")
	}
	if stats := s.Store().Stats(); stats.Files != 0 {
		t.Fatal("unmatched file got a receipt")
	}
}

func TestAnalyzerReportFindsNewFeedAndFalseNegative(t *testing.T) {
	s := newServer(t, testConfig, nil)
	// A renamed BPS feed (capital P in Poller breaks %i after 'poller').
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("BPS_Poller%d_2010092504%02d.csv", i%2+1, i)
		if err := s.Deposit(name, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	// And a matched stream so subfeed analysis has input.
	for i := 0; i < 4; i++ {
		s.Deposit(fmt.Sprintf("CPU_POLL1_2010092504%02d.txt", i), []byte("y"))
	}
	rep := s.Analyze()
	if len(rep.NewFeeds) == 0 {
		t.Fatal("no new feeds discovered")
	}
	if len(rep.FalseNegatives) == 0 {
		t.Fatal("no false negatives detected")
	}
	if rep.FalseNegatives[0].Feed != "SNMP/BPS" {
		t.Fatalf("false negative linked to %s", rep.FalseNegatives[0].Feed)
	}
	if len(rep.Subfeeds) == 0 {
		t.Fatal("no subfeed reports")
	}
}

func TestProtocolUploadAndPush(t *testing.T) {
	// Full network path: source uploads via TCP; server classifies and
	// pushes to a subscriber daemon over TCP.
	subDir := t.TempDir()
	daemon, err := subclient.Start("127.0.0.1:0", subclient.Options{Name: "wh", DestDir: subDir})
	if err != nil {
		t.Fatal(err)
	}
	defer daemon.Stop()

	cfgSrc := fmt.Sprintf(`
feed CPU { pattern "CPU_POLL%%i_%%Y%%m%%d%%H%%M.txt" }
subscriber wh {
    host "%s"
    dest "in"
    subscribe CPU
}
`, daemon.Addr())
	s := newServer(t, cfgSrc, func(o *Options) { o.Listen = "127.0.0.1:0" })

	src, err := sourceclient.Dial(s.Addr(), "poller1", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if err := src.Upload("CPU_POLL1_201009250451.txt", []byte("cpu=42\n")); err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(subDir, "in", "CPU", "CPU_POLL1_201009250451.txt")
	waitFor(t, "pushed file", func() bool {
		_, err := os.Stat(want)
		return err == nil
	})
	got, _ := os.ReadFile(want)
	if string(got) != "cpu=42\n" {
		t.Fatalf("content = %q", got)
	}
}

func TestSourcePunctuationFiresBatchTrigger(t *testing.T) {
	marker := filepath.Join(t.TempDir(), "fired")
	cfgSrc := fmt.Sprintf(`
feed CPU { pattern "CPU_POLL%%i_%%Y%%m%%d%%H%%M.txt" }
subscriber wh {
    dest "in"
    subscribe CPU
    trigger batch count 100 timeout 1h exec "touch %s"
}
`, marker)
	s := newServer(t, cfgSrc, func(o *Options) { o.Listen = "127.0.0.1:0" })

	src, err := sourceclient.Dial(s.Addr(), "poller1", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for i := 0; i < 3; i++ {
		if err := src.Upload(fmt.Sprintf("CPU_POLL%d_201009250451.txt", i+1), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	// Deliveries happen, batch stays open (count 100, timeout 1h).
	waitFor(t, "deliveries", func() bool {
		st, _ := s.Logger().Stats("CPU")
		return st.Delivered == 3
	})
	if _, err := os.Stat(marker); err == nil {
		t.Fatal("trigger fired before punctuation")
	}
	if err := src.EndOfBatch("CPU"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "trigger marker", func() bool {
		_, err := os.Stat(marker)
		return err == nil
	})
}

func TestRestartBackfillsMissedHistory(t *testing.T) {
	root := t.TempDir()
	cfg := `
feed CPU { pattern "CPU_POLL%i_%Y%m%d%H%M.txt" }
subscriber wh { dest "in" subscribe CPU }
`
	opts := Options{Config: mustConfig(t, cfg), Root: root, ScanInterval: -1, NoSync: false}
	s1, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Start(); err != nil {
		t.Fatal(err)
	}
	s1.Deposit("CPU_POLL1_201009250451.txt", []byte("v1"))
	waitFor(t, "first delivery", func() bool {
		st, _ := s1.Logger().Stats("CPU")
		return st.Delivered == 1
	})
	s1.Stop()

	// Second server instance over the same root with an additional
	// subscriber: the receipt DB knows the history; the newcomer gets
	// backfilled, the old subscriber does not get duplicates.
	cfg2 := `
feed CPU { pattern "CPU_POLL%i_%Y%m%d%H%M.txt" }
subscriber wh { dest "in" subscribe CPU }
subscriber late { dest "late-in" subscribe CPU }
`
	s2, err := New(Options{Config: mustConfig(t, cfg2), Root: root, ScanInterval: -1, NoSync: false})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Stop()
	if err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(root, "late-in", "CPU", "CPU_POLL1_201009250451.txt")
	waitFor(t, "latecomer backfill", func() bool {
		_, err := os.Stat(want)
		return err == nil
	})
	if got := s2.Store().DeliveredCount("wh"); got != 1 {
		t.Fatalf("wh delivered count = %d (duplicate?)", got)
	}
}

func TestCascadedServers(t *testing.T) {
	// Server A pushes feed files to server B (a Bistro acting as a
	// subscriber of another Bistro); B classifies and delivers them to
	// its own local subscriber.
	rootB := t.TempDir()
	cfgB := `
feed CPU { pattern "CPU_POLL%i_%Y%m%d%H%M.txt" }
subscriber analyst { dest "analyst-in" subscribe CPU }
`
	b, err := New(Options{Config: mustConfig(t, cfgB), Root: rootB, ScanInterval: -1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}

	// B's ingress: a subscriber daemon that deposits into B's landing.
	relay, err := subclient.Start("127.0.0.1:0", subclient.Options{
		Name:    "bistroB",
		DestDir: b.Landing().Dir(),
		OnFile: func(rel string) {
			// Upstream delivers under its staging layout ("CPU/...");
			// flatten to the bare filename B's patterns expect.
			base := filepath.Base(filepath.FromSlash(rel))
			if base != rel {
				os.Rename(
					filepath.Join(b.Landing().Dir(), filepath.FromSlash(rel)),
					filepath.Join(b.Landing().Dir(), base),
				)
			}
			b.Landing().FileReady(base)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Stop()

	cfgA := fmt.Sprintf(`
feed CPU { pattern "CPU_POLL%%i_%%Y%%m%%d%%H%%M.txt" }
subscriber bistroB {
    host "%s"
    dest ""
    subscribe CPU
}
`, relay.Addr())
	a := newServer(t, cfgA, nil)
	if err := a.Deposit("CPU_POLL7_201009250451.txt", []byte("cascade")); err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(rootB, "analyst-in", "CPU", "CPU_POLL7_201009250451.txt")
	waitFor(t, "cascaded delivery", func() bool {
		_, err := os.Stat(want)
		return err == nil
	})
	got, _ := os.ReadFile(want)
	if string(got) != "cascade" {
		t.Fatalf("content = %q", got)
	}
}

func TestWindowExpiryMovesToArchive(t *testing.T) {
	cfgSrc := `
window 1h
archive "arch"
feed CPU { pattern "CPU_POLL%i_%Y%m%d%H%M.txt" }
subscriber wh { dest "in" subscribe CPU }
`
	s := newServer(t, cfgSrc, func(o *Options) { o.ExpiryInterval = -1 })
	// Data time far in the past relative to the wall clock.
	if err := s.Deposit("CPU_POLL1_201009250451.txt", []byte("old")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "delivery", func() bool {
		st, _ := s.Logger().Stats("CPU")
		return st.Delivered == 1
	})
	n, err := s.Archiver().ExpireOnce()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("expired = %d", n)
	}
	if _, err := os.Stat(filepath.Join(s.root, "arch", "CPU", "CPU_POLL1_201009250451.txt")); err != nil {
		t.Fatal("expired file not in archive")
	}
}

func TestMultiFeedFileDeliveredToBothFeedSubscribers(t *testing.T) {
	cfgSrc := `
feed ALL  { pattern "*_%Y%m%d%H%M.csv" }
feed BPS  { pattern "BPS_poller%i_%Y%m%d%H%M.csv" }
subscriber everything { dest "all-in" subscribe ALL }
subscriber billing    { dest "bill-in" subscribe BPS }
`
	s := newServer(t, cfgSrc, nil)
	if err := s.Deposit("BPS_poller1_201009250451.csv", []byte("x")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "both deliveries", func() bool {
		return s.Store().DeliveredCount("everything") == 1 &&
			s.Store().DeliveredCount("billing") == 1
	})
}

func TestDeliveryEventsReachTap(t *testing.T) {
	var events []delivery.Event
	done := make(chan struct{}, 16)
	s := newServer(t, testConfig, func(o *Options) {
		o.OnEvent = func(ev delivery.Event) {
			events = append(events, ev) // serialized by engine emit? copy via channel below
			done <- struct{}{}
		}
	})
	s.Deposit("CPU_POLL1_201009250451.txt", []byte("x"))
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("no events")
	}
}

func TestHybridPullFetch(t *testing.T) {
	// A notify-method subscriber is told a file exists, then pulls it
	// through the protocol at a time of its choosing (§4.1 hybrid
	// push-pull).
	subDir := t.TempDir()
	daemon, err := subclient.Start("127.0.0.1:0", subclient.Options{Name: "viz", DestDir: subDir})
	if err != nil {
		t.Fatal(err)
	}
	defer daemon.Stop()

	cfgSrc := fmt.Sprintf(`
feed CPU { pattern "CPU_POLL%%i_%%Y%%m%%d%%H%%M.txt" }
subscriber viz {
    host "%s"
    dest "in"
    subscribe CPU
    method notify
}
`, daemon.Addr())
	s := newServer(t, cfgSrc, func(o *Options) { o.Listen = "127.0.0.1:0" })

	if err := s.Deposit("CPU_POLL1_201009250451.txt", []byte("pull me")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "notification", func() bool { return len(daemon.Notifications()) == 1 })
	n := daemon.Notifications()[0]

	// The subscriber fetches when it pleases.
	conn, err := protocolDial(t, s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(protocol.Fetch{FileID: n.FileID}); err != nil {
		t.Fatal(err)
	}
	reply, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	d, ok := reply.(protocol.Deliver)
	if !ok {
		t.Fatalf("reply = %#v", reply)
	}
	if string(d.Data) != "pull me" {
		t.Fatalf("data = %q", d.Data)
	}
	// Unknown id errors.
	if err := conn.Send(protocol.Fetch{FileID: 99999}); err != nil {
		t.Fatal(err)
	}
	reply, err = conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ack, ok := reply.(protocol.Ack); !ok || ack.OK {
		t.Fatalf("unknown id reply = %#v", reply)
	}
}

func protocolDial(t *testing.T, addr string) (*protocol.Conn, error) {
	t.Helper()
	return protocol.Dial(addr, 2*time.Second)
}

func TestAnalyzeSuggestsGroups(t *testing.T) {
	s := newServer(t, testConfig, nil)
	// Two structurally identical unmatched feeds — the analyzer should
	// suggest bundling them.
	for i := 0; i < 6; i++ {
		ts := fmt.Sprintf("2010092504%02d", i)
		s.Deposit(fmt.Sprintf("LINKUTIL_probe%d_%s.dat", i%2+1, ts), []byte("x"))
		s.Deposit(fmt.Sprintf("LINKLOSS_probe%d_%s.dat", i%2+1, ts), []byte("x"))
	}
	rep := s.Analyze()
	if len(rep.NewFeeds) < 2 {
		t.Fatalf("new feeds = %d", len(rep.NewFeeds))
	}
	foundPair := false
	for _, g := range rep.SuggestedGroups {
		if len(g.Members) >= 2 {
			foundPair = true
		}
	}
	if !foundPair {
		t.Fatalf("no multi-member group suggested: %+v", rep.SuggestedGroups)
	}
}

// Analyze reads a feed's matched stream back from the receipt store:
// the newest AnalyzerSample files that have not expired.
func TestAnalyzeMatchedStreamFollowsReceipts(t *testing.T) {
	cfgSrc := `
window 1h
archive "arch"
feed CPU { pattern "CPU_POLL%i_%Y%m%d%H%M.txt" }
subscriber wh { dest "in" subscribe CPU }
`
	s := newServer(t, cfgSrc, func(o *Options) {
		o.ExpiryInterval = -1
		o.AnalyzerSample = 3
	})
	cpuTotal := func() int {
		for _, r := range s.Analyze().Subfeeds {
			if r.Feed == "CPU" {
				return r.Total
			}
		}
		return 0
	}
	// Data times in 2010 are far outside the 1h window.
	for i := 0; i < 2; i++ {
		if err := s.Deposit(fmt.Sprintf("CPU_POLL1_20100925045%d.txt", i), []byte("old")); err != nil {
			t.Fatal(err)
		}
	}
	if got := cpuTotal(); got != 2 {
		t.Fatalf("matched stream holds %d files, want 2", got)
	}
	waitFor(t, "delivery", func() bool {
		st, _ := s.Logger().Stats("CPU")
		return st.Delivered == 2
	})
	if n, err := s.Archiver().ExpireOnce(); err != nil || n != 2 {
		t.Fatalf("expire = %d, %v", n, err)
	}
	if got := cpuTotal(); got != 0 {
		t.Fatalf("matched stream holds %d expired files", got)
	}
	now := time.Now().UTC()
	for i := 0; i < 5; i++ {
		name := "CPU_POLL1_" + now.Add(-time.Duration(i)*time.Minute).Format("200601021504") + ".txt"
		if err := s.Deposit(name, []byte("new")); err != nil {
			t.Fatal(err)
		}
	}
	if got := cpuTotal(); got != 3 {
		t.Fatalf("matched stream holds %d files, want the newest AnalyzerSample = 3", got)
	}
}

func TestFetchFallsBackToArchive(t *testing.T) {
	cfgSrc := `
window 1h
archive "arch"
feed CPU { pattern "CPU_POLL%i_%Y%m%d%H%M.txt" }
subscriber wh { dest "in" subscribe CPU }
`
	s := newServer(t, cfgSrc, func(o *Options) {
		o.Listen = "127.0.0.1:0"
		o.ExpiryInterval = -1
	})
	if err := s.Deposit("CPU_POLL1_201009250451.txt", []byte("historical")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "delivery", func() bool {
		st, _ := s.Logger().Stats("CPU")
		return st.Delivered == 1
	})
	// Find the file id, then expire the window (the 2010 data time is
	// far outside a 1h window relative to the wall clock).
	files := s.Store().FilesInFeed("CPU")
	if len(files) != 1 {
		t.Fatalf("files = %d", len(files))
	}
	id := files[0].ID
	if n, err := s.Archiver().ExpireOnce(); err != nil || n != 1 {
		t.Fatalf("expire = %d, %v", n, err)
	}
	// A long-horizon subscriber can still pull the file: the server
	// serves it from the archive.
	conn, err := protocolDial(t, s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(protocol.Fetch{FileID: id}); err != nil {
		t.Fatal(err)
	}
	reply, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	d, ok := reply.(protocol.Deliver)
	if !ok {
		t.Fatalf("reply = %#v", reply)
	}
	if string(d.Data) != "historical" {
		t.Fatalf("data = %q", d.Data)
	}
}

// stagingReadFault fails every open under a staging directory once
// armed, the way a bad sector would.
type stagingReadFault struct {
	diskfault.FS
	armed atomic.Bool
}

var errBadSector = errors.New("injected read error")

func (f *stagingReadFault) Open(name string) (diskfault.File, error) {
	if f.armed.Load() && strings.Contains(name, "staging") {
		return nil, errBadSector
	}
	return f.FS.Open(name)
}

// A fetch reads the staged file through the filesystem seam, and only
// a file that is no longer staged sends it to the archive: a read
// error is reported as such, not turned into an archive miss.
func TestFetchSurfacesStagedReadError(t *testing.T) {
	fault := &stagingReadFault{FS: diskfault.OS()}
	cfgSrc := `
archive "arch"
feed CPU { pattern "CPU_POLL%i_%Y%m%d%H%M.txt" }
subscriber wh { dest "in" subscribe CPU }
`
	s := newServer(t, cfgSrc, func(o *Options) {
		o.Listen = "127.0.0.1:0"
		o.FS = fault
	})
	if err := s.Deposit("CPU_POLL1_201009250451.txt", []byte("on a bad sector")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "delivery", func() bool {
		st, _ := s.Logger().Stats("CPU")
		return st.Delivered == 1
	})
	id := s.Store().FilesInFeed("CPU")[0].ID
	conn, err := protocolDial(t, s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fetch := func() any {
		t.Helper()
		if err := conn.Send(protocol.Fetch{FileID: id}); err != nil {
			t.Fatal(err)
		}
		reply, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		return reply
	}
	if d, ok := fetch().(protocol.Deliver); !ok || string(d.Data) != "on a bad sector" {
		t.Fatalf("healthy fetch = %#v", d)
	}
	fault.armed.Store(true)
	ack, ok := fetch().(protocol.Ack)
	if !ok || ack.OK || !strings.Contains(ack.Error, errBadSector.Error()) {
		t.Fatalf("fetch over a failing read = %#v, want the injected error", ack)
	}
}

// midReadFault opens staged files that fail their first read once
// armed: the open succeeded, so the Fetch reply is already on the wire.
type midReadFault struct {
	diskfault.FS
	armed atomic.Bool
}

type failingRead struct{ diskfault.File }

func (failingRead) Read([]byte) (int, error) { return 0, errBadSector }

func (f *midReadFault) Open(name string) (diskfault.File, error) {
	file, err := f.FS.Open(name)
	if err == nil && f.armed.Load() && strings.Contains(name, "staging") {
		return failingRead{file}, nil
	}
	return file, err
}

// lockedBuffer is a log sink safe to read while the server writes it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// A read that fails after the Fetch reply's header is sent cuts the
// frame: the client loses the connection, and the cause, which no Ack
// can carry any more, is in the server's log under the file id.
func TestFetchMidReadErrorLogged(t *testing.T) {
	fault := &midReadFault{FS: diskfault.OS()}
	log := &lockedBuffer{}
	s := newServer(t, `
feed CPU { pattern "CPU_POLL%i_%Y%m%d%H%M.txt" }
subscriber wh { dest "in" subscribe CPU }
`, func(o *Options) {
		o.Listen = "127.0.0.1:0"
		o.FS = fault
		o.LogWriter = log
	})
	if err := s.Deposit("CPU_POLL1_201009250451.txt", []byte("half a file")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "delivery", func() bool { return s.Store().DeliveredCount("wh") == 1 })
	id := s.Store().FilesInFeed("CPU")[0].ID
	conn, err := protocolDial(t, s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fault.armed.Store(true)
	if err := conn.Send(protocol.Fetch{FileID: id}); err != nil {
		t.Fatal(err)
	}
	if reply, err := conn.Recv(); err == nil {
		t.Fatalf("fetch over a mid-read failure = %#v, want the connection cut", reply)
	}
	want := fmt.Sprintf("file %d (CPU/CPU_POLL1_201009250451.txt): ", id)
	waitFor(t, "the fetch failure logged", func() bool {
		return strings.Contains(log.String(), want) && strings.Contains(log.String(), errBadSector.Error())
	})
}

func TestRevisedDefinitionClaimsQuarantinedFiles(t *testing.T) {
	// Run 1: no feed matches these files; they are quarantined.
	root := t.TempDir()
	cfg1 := `
feed CPU { pattern "CPU_POLL%i_%Y%m%d%H%M.txt" }
subscriber wh { dest "in" subscribe CPU }
`
	s1, err := New(Options{Config: mustConfig(t, cfg1), Root: root, ScanInterval: -1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := s1.Deposit(fmt.Sprintf("MEM_PROBE%d_201009250451.dat", i), []byte("m")); err != nil {
			t.Fatal(err)
		}
	}
	if got := s1.Logger().Unmatched(); got != 3 {
		t.Fatalf("unmatched = %d", got)
	}
	s1.Stop()

	// Run 2: a revised configuration adds a feed covering them; the
	// quarantined files must be claimed and delivered.
	cfg2 := `
feed CPU { pattern "CPU_POLL%i_%Y%m%d%H%M.txt" }
feed MEM { pattern "MEM_PROBE%i_%Y%m%d%H%M.dat" }
subscriber wh { dest "in" subscribe CPU subscribe MEM }
`
	s2, err := New(Options{Config: mustConfig(t, cfg2), Root: root, ScanInterval: -1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Stop()
	if err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		want := filepath.Join(root, "in", "MEM", fmt.Sprintf("MEM_PROBE%d_201009250451.dat", i))
		waitFor(t, "revised-definition delivery", func() bool {
			_, err := os.Stat(want)
			return err == nil
		})
	}
	// The quarantine is empty of claimed files.
	entries, _ := os.ReadDir(filepath.Join(root, "staging", "_unmatched"))
	if len(entries) != 0 {
		t.Fatalf("quarantine not drained: %v", entries)
	}
}

func TestMonitorLoopRaisesAlarms(t *testing.T) {
	var mu sync.Mutex
	var alarms []feedlog.Alarm
	cfgSrc := `
feed CPU {
    pattern "CPU_POLL%i_%Y%m%d%H%M.txt"
    expect 5m 3
}
subscriber wh { dest "in" subscribe CPU }
`
	s := newServer(t, cfgSrc, func(o *Options) {
		o.MonitorInterval = 10 * time.Millisecond
		o.OnAlarm = func(a feedlog.Alarm) {
			mu.Lock()
			alarms = append(alarms, a)
			mu.Unlock()
		}
	})
	// One file from a 3-source fleet, with a data time in the distant
	// past: the interval closes immediately and is incomplete, and the
	// feed goes stale relative to its 5m cadence.
	if err := s.Deposit("CPU_POLL1_201009250451.txt", []byte("x")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "monitoring alarms", func() bool {
		mu.Lock()
		defer mu.Unlock()
		hasIncomplete := false
		for _, a := range alarms {
			if strings.Contains(a.Message, "incomplete") {
				hasIncomplete = true
			}
		}
		return hasIncomplete
	})
}

func TestSubscriberDaemonRestartRecovers(t *testing.T) {
	// A remote subscriber daemon dies mid-stream and comes back on the
	// same address: the cached connection breaks, the prober detects
	// recovery, and the receipt-driven backfill delivers what was
	// missed — over real TCP.
	subDir := t.TempDir()
	daemon, err := subclient.Start("127.0.0.1:0", subclient.Options{Name: "wh", DestDir: subDir})
	if err != nil {
		t.Fatal(err)
	}
	addr := daemon.Addr()

	cfgSrc := fmt.Sprintf(`
feed CPU { pattern "CPU_POLL%%i_%%Y%%m%%d%%H%%M.txt" }
subscriber wh {
    host "%s"
    dest "in"
    subscribe CPU
    retry 1
}
`, addr)
	s := newServer(t, cfgSrc, nil)

	if err := s.Deposit("CPU_POLL1_201009250451.txt", []byte("one")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first delivery", func() bool { return s.Store().DeliveredCount("wh") == 1 })

	// Kill the daemon; deposit while it is down.
	daemon.Stop()
	if err := s.Deposit("CPU_POLL2_201009250451.txt", []byte("two")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "offline detection", func() bool { return s.Engine().Offline("wh") })

	// Restart on the same address; the prober reconnects and backfills.
	daemon2, err := subclient.Start(addr, subclient.Options{Name: "wh", DestDir: subDir})
	if err != nil {
		t.Fatal(err)
	}
	defer daemon2.Stop()
	waitFor(t, "backfill after restart", func() bool { return s.Store().DeliveredCount("wh") == 2 })
	got, err := os.ReadFile(filepath.Join(subDir, "in", "CPU", "CPU_POLL2_201009250451.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "two" {
		t.Fatalf("content = %q", got)
	}
}

func TestStreamingDeliveryOverTCP(t *testing.T) {
	// A file above the delivery engine's stream threshold goes from
	// staging to the subscriber daemon in one streamed Deliver frame.
	subDir := t.TempDir()
	daemon, err := subclient.Start("127.0.0.1:0", subclient.Options{Name: "wh", DestDir: subDir})
	if err != nil {
		t.Fatal(err)
	}
	defer daemon.Stop()
	cfgSrc := fmt.Sprintf(`
feed BLOB { pattern "blob_%%Y%%m%%d%%H%%M.bin" }
subscriber wh { host "%s" dest "in" subscribe BLOB }
`, daemon.Addr())
	s := newServer(t, cfgSrc, nil)

	payload := make([]byte, 5<<20)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	if err := s.Deposit("blob_201009250451.bin", payload); err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(subDir, "in", "BLOB", "blob_201009250451.bin")
	waitFor(t, "streamed delivery", func() bool {
		st, err := os.Stat(want)
		return err == nil && st.Size() == int64(len(payload))
	})
	got, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != payload[i] {
			t.Fatalf("content mismatch at byte %d", i)
		}
	}
}

func TestStatusSummary(t *testing.T) {
	s := newServer(t, testConfig, nil)
	s.Deposit("CPU_POLL1_201009250451.txt", []byte("x"))
	waitFor(t, "delivery", func() bool {
		st, _ := s.Logger().Stats("SNMP/CPU")
		return st.Delivered == 1
	})
	sum := s.StatusSummary()
	for _, want := range []string{"== feeds ==", "SNMP/CPU", "== subscribers ==", "wh: delivered=1", "== receipts ==", "files=1"} {
		if !strings.Contains(sum, want) {
			t.Fatalf("summary missing %q:\n%s", want, sum)
		}
	}
}

func TestAnalyzeLoopRaisesFalseNegativeAlarm(t *testing.T) {
	var mu sync.Mutex
	var alarms []feedlog.Alarm
	s := newServer(t, testConfig, func(o *Options) {
		o.AnalyzeInterval = 20 * time.Millisecond
		o.OnAlarm = func(a feedlog.Alarm) {
			mu.Lock()
			alarms = append(alarms, a)
			mu.Unlock()
		}
	})
	// Renamed BPS files: unmatched, structurally similar to SNMP/BPS.
	for i := 0; i < 6; i++ {
		s.Deposit(fmt.Sprintf("BPS_Poller%d_2010092504%02d.csv", i%2+1, i), []byte("x"))
	}
	waitFor(t, "analyzer alarm", func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, a := range alarms {
			if a.Feed == "SNMP/BPS" && strings.Contains(a.Message, "false negatives") {
				return true
			}
		}
		return false
	})
}

func TestConfiguredSchedulerLayout(t *testing.T) {
	cfgSrc := `
scheduler {
    partition fast { workers 1 policy edf }
    partition slow { workers 2 backfill 1 }
}
feed CPU { pattern "CPU_POLL%i_%Y%m%d%H%M.txt" }
subscriber viz  { dest "v" subscribe CPU class interactive }
subscriber bulk { dest "b" subscribe CPU }
`
	s := newServer(t, cfgSrc, nil)
	sched := s.Engine().Scheduler()
	parts := sched.Partitions()
	if len(parts) != 2 || parts[0].Name != "fast" || parts[1].Name != "slow" || parts[1].BackfillWorkers != 1 {
		t.Fatalf("partitions = %+v", parts)
	}
	if got := sched.PartitionOf("viz"); got != 0 {
		t.Fatalf("viz partition = %d", got)
	}
	if got := sched.PartitionOf("bulk"); got != 1 {
		t.Fatalf("bulk partition = %d", got)
	}
	// The configured layout actually delivers.
	s.Deposit("CPU_POLL1_201009250451.txt", []byte("x"))
	waitFor(t, "both deliveries", func() bool {
		return s.Store().DeliveredCount("viz") == 1 && s.Store().DeliveredCount("bulk") == 1
	})
}

func TestAddSubscriberAtRuntime(t *testing.T) {
	s := newServer(t, testConfig, nil)
	// History accumulates before the newcomer exists.
	for i := 0; i < 4; i++ {
		s.Deposit(fmt.Sprintf("CPU_POLL1_2010092504%02d.txt", i), []byte("h"))
	}
	waitFor(t, "initial deliveries", func() bool { return s.Store().DeliveredCount("wh") == 4 })

	late := &config.Subscriber{
		Name:          "late",
		Dest:          "late-in",
		Subscriptions: []string{"SNMP/CPU"},
		Class:         "interactive",
	}
	if err := s.AddSubscriber(late); err != nil {
		t.Fatal(err)
	}
	// Full history backfill...
	waitFor(t, "history backfill", func() bool { return s.Store().DeliveredCount("late") == 4 })
	// ...and future real-time traffic.
	s.Deposit("CPU_POLL1_201009250599.txt", []byte("n")) // minute 99 invalid -> unmatched? use valid minute
	s.Deposit("CPU_POLL1_201009250559.txt", []byte("n"))
	waitFor(t, "new traffic to late", func() bool { return s.Store().DeliveredCount("late") >= 5 })
	if _, err := os.Stat(filepath.Join(s.root, "late-in", "SNMP", "CPU", "CPU_POLL1_201009250400.txt")); err != nil {
		t.Fatalf("backfilled file missing: %v", err)
	}
	// Duplicate registration and unknown feeds are rejected.
	if err := s.AddSubscriber(late); err == nil {
		t.Fatal("duplicate subscriber accepted")
	}
	if err := s.AddSubscriber(&config.Subscriber{Name: "x", Subscriptions: []string{"NOPE"}}); err == nil {
		t.Fatal("unknown feed accepted")
	}
}

func TestSubscribeFromReplaysArchivedHistory(t *testing.T) {
	cfgSrc := `
window 1h
archive "arch"

replay {
    rate 500
}

feed CPU { pattern "CPU_POLL%i_%Y%m%d%H%M.txt" }
`
	s := newServer(t, cfgSrc, func(o *Options) {
		o.ExpiryInterval = -1 // expiry and compaction driven explicitly
		o.Listen = "127.0.0.1:0"
	})

	// History: data times two days before the wall clock, far outside
	// the 1h window. No subscriber exists yet, so nothing is delivered.
	old := time.Now().UTC().Add(-48 * time.Hour)
	var histNames []string
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("CPU_POLL1_%s.txt", old.Add(time.Duration(i)*time.Minute).Format("200601021504"))
		histNames = append(histNames, name)
		if err := s.Deposit(name, []byte("hist:"+name)); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := s.Archiver().ExpireOnce(); err != nil || n != 5 {
		t.Fatalf("expired = %d, %v", n, err)
	}
	if s.Archiver().Manifest().Len() != 5 {
		t.Fatalf("manifest entries = %d", s.Archiver().Manifest().Len())
	}
	// Fold the archived receipts: the manifest becomes their only
	// record, so replay must work through the HistoryMeta seam.
	if n, err := s.CompactReceipts(); err != nil || n != 5 {
		t.Fatalf("compacted = %d, %v", n, err)
	}
	if st := s.Store().Stats(); st.Files != 0 {
		t.Fatalf("receipts not folded: %+v", st)
	}

	// One live file inside the window.
	liveName := fmt.Sprintf("CPU_POLL2_%s.txt", time.Now().UTC().Format("200601021504"))
	if err := s.Deposit(liveName, []byte("live")); err != nil {
		t.Fatal(err)
	}

	// SUBSCRIBE CPU FROM three days ago, over the wire.
	err := subclient.Subscribe(s.Addr(), subclient.SubscribeSpec{
		Name:  "wh",
		Dest:  "wh-in",
		Feeds: []string{"CPU"},
		From:  time.Now().UTC().Add(-72 * time.Hour),
	}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	waitFor(t, "replay session handoff", func() bool {
		ss := s.Replay().Sessions()
		return len(ss) == 1 && ss[0].Done
	})
	ss := s.Replay().Sessions()[0]
	if ss.Total != 5 || ss.Streamed != 5 || ss.Skipped != 0 || ss.Delivered != 5 {
		t.Fatalf("session = %+v", ss)
	}
	waitFor(t, "live delivery", func() bool {
		_, err := os.Stat(filepath.Join(s.root, "wh-in", "CPU", liveName))
		return err == nil
	})
	// Every archived file arrived, with content intact, exactly once.
	for _, name := range histNames {
		got, err := os.ReadFile(filepath.Join(s.root, "wh-in", "CPU", name))
		if err != nil {
			t.Fatalf("replayed file missing: %v", err)
		}
		if string(got) != "hist:"+name {
			t.Fatalf("replayed content = %q", got)
		}
	}
	entries, err := os.ReadDir(filepath.Join(s.root, "wh-in", "CPU"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 6 {
		t.Fatalf("delivered %d files, want 6 (5 archive + 1 live)", len(entries))
	}
	// The session shows up in the structured status snapshot.
	if st := s.Status(); len(st.Replay) != 1 || st.Replay[0].Subscriber != "wh" {
		t.Fatalf("status replay = %+v", st.Replay)
	}
	// Re-subscribing with the same FROM is idempotent: everything is
	// receipted as delivered now, so the new session skips it all.
	err = subclient.Subscribe(s.Addr(), subclient.SubscribeSpec{
		Name:  "wh",
		Dest:  "wh-in",
		Feeds: []string{"CPU"},
		From:  time.Now().UTC().Add(-72 * time.Hour),
	}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "re-subscription session", func() bool {
		ss := s.Replay().Sessions()
		return len(ss) == 1 && ss[0].Done && ss[0].Skipped == 5
	})
	if entries, _ = os.ReadDir(filepath.Join(s.root, "wh-in", "CPU")); len(entries) != 6 {
		t.Fatalf("re-subscription duplicated deliveries: %d files", len(entries))
	}
}

func TestSubscribeFromWithoutReplayRefused(t *testing.T) {
	s := newServer(t, testConfig, func(o *Options) { o.Listen = "127.0.0.1:0" })
	err := subclient.Subscribe(s.Addr(), subclient.SubscribeSpec{
		Name:  "late",
		Dest:  "late-in",
		Feeds: []string{"SNMP/CPU"},
		From:  time.Now().Add(-24 * time.Hour),
	}, 5*time.Second)
	if err == nil {
		t.Fatal("FROM subscription accepted without a replay block")
	}
}

// A runtime subscriber without a host is delivered into the server
// root under its dest: a dest that would climb out of the root is
// refused at SUBSCRIBE, and nothing is written outside the root.
func TestRuntimeLocalDestConfinedToRoot(t *testing.T) {
	parent := t.TempDir()
	s := newServer(t, testConfig, func(o *Options) {
		o.Root = filepath.Join(parent, "root")
		o.Listen = "127.0.0.1:0"
	})
	if err := s.Deposit("CPU_POLL1_201009250451.txt", []byte("x")); err != nil {
		t.Fatal(err)
	}
	conn, err := protocolDial(t, s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i, dest := range []string{"../outside", "in/../../outside", "."} {
		sub := protocol.Subscribe{Name: fmt.Sprintf("evil%d", i), Dest: dest, Feeds: []string{"SNMP/CPU"}}
		if err := conn.Call(sub); err == nil || !strings.Contains(err.Error(), "invalid path") {
			t.Fatalf("dest %q: err = %v, want an invalid-path refusal", dest, err)
		}
	}
	// The server's own trees under the root are no dest either: files
	// pushed into landing would be ingested again, round after round.
	for i, dest := range []string{"landing", "landing/in", "staging", "receipts", "quarantine/x"} {
		sub := protocol.Subscribe{Name: fmt.Sprintf("own%d", i), Dest: dest, Feeds: []string{"SNMP/CPU"}}
		if err := conn.Call(sub); err == nil || !strings.Contains(err.Error(), "overlaps") {
			t.Fatalf("dest %q: err = %v, want an overlap refusal", dest, err)
		}
	}
	if err := s.Deposit("CPU_POLL1_201009250452.txt", []byte("y")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "both files delivered to wh", func() bool { return s.Store().DeliveredCount("wh") == 2 })
	entries, err := os.ReadDir(parent)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "root" {
		t.Fatalf("the root's parent holds %v, want only root", entries)
	}
	for _, own := range []string{"landing", "receipts", "quarantine"} {
		if _, err := os.Stat(filepath.Join(parent, "root", own, "SNMP", "CPU", "CPU_POLL1_201009250452.txt")); err == nil {
			t.Fatalf("a refused subscriber's file reached %s", own)
		}
	}
}

// TestConfiguredLocalDestRefusedAtNew: a host-less subscriber from the
// config file gets the same dest check as a runtime one, at start-up,
// instead of a delivery that fails with "invalid path" on every retry.
func TestConfiguredLocalDestRefusedAtNew(t *testing.T) {
	for dest, want := range map[string]string{
		"/abs":     "invalid path",
		"../x":     "invalid path",
		"a/../..":  "invalid path",
		"landing":  "overlaps",
		"arch/old": "overlaps",
	} {
		cfg := mustConfig(t, strings.Replace(testConfig, `dest "wh-in"`, fmt.Sprintf("dest %q", dest), 1)+`archive "arch"`+"\n")
		_, err := New(Options{Config: cfg, Root: t.TempDir(), ScanInterval: -1, NoSync: true})
		if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "subscriber wh") {
			t.Fatalf("dest %q: New err = %v, want %q naming the subscriber", dest, err, want)
		}
	}
}
