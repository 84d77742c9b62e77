package receipts

import (
	"fmt"
	"sync"
	"testing"

	"bistro/internal/oracle"
)

// TestFeedLog checks the consumable-log view the HTTP data plane
// reads: id order, expired receipts retained (their bytes live on in
// the archive), quarantined receipts withdrawn.
func TestFeedLog(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{NoSync: true})
	defer s.Close()
	id1, _ := s.RecordArrival(meta("a", "bps"))
	id2, _ := s.RecordArrival(meta("b", "bps", "pps"))
	id3, _ := s.RecordArrival(meta("c", "bps"))
	id4, _ := s.RecordArrival(meta("d", "pps"))

	if err := s.RecordExpire(id1); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordQuarantine(id3); err != nil {
		t.Fatal(err)
	}
	if !s.IsExpired(id1) || s.IsExpired(id2) {
		t.Fatal("IsExpired disagrees with recorded expiry")
	}

	log := s.FeedLog("bps")
	want := []uint64{id1, id2}
	if len(log) != len(want) {
		t.Fatalf("FeedLog(bps) has %d entries, want %d", len(log), len(want))
	}
	for i, id := range want {
		if log[i].ID != id {
			t.Fatalf("FeedLog(bps)[%d].ID = %d, want %d", i, log[i].ID, id)
		}
	}
	if pps := s.FeedLog("pps"); len(pps) != 2 || pps[0].ID != id2 || pps[1].ID != id4 {
		t.Fatalf("FeedLog(pps) = %v", pps)
	}
	if empty := s.FeedLog("nope"); len(empty) != 0 {
		t.Fatalf("FeedLog(nope) = %v, want empty", empty)
	}
}

// TestFeedPage pages the same view: at most limit receipts from the
// cursor on, a quarantined one skipped without using up the limit, and
// head the last id the view holds.
func TestFeedPage(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{NoSync: true})
	defer s.Close()
	var ids []uint64
	for _, name := range []string{"a", "b", "c", "d", "e"} {
		id, _ := s.RecordArrival(meta(name, "bps"))
		ids = append(ids, id)
	}
	if err := s.RecordQuarantine(ids[1]); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordQuarantine(ids[4]); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		from  uint64
		limit int
		want  []uint64
	}{
		{0, 10, []uint64{ids[0], ids[2], ids[3]}},
		{0, 2, []uint64{ids[0], ids[2]}},
		{ids[1], 1, []uint64{ids[2]}},
		{ids[4], 10, nil},
	} {
		page, below, head := s.FeedPage("bps", c.from, c.limit)
		var got []uint64
		for _, f := range page {
			got = append(got, f.ID)
		}
		if fmt.Sprint(got) != fmt.Sprint(c.want) || head != ids[3] || below != ^uint64(0) {
			t.Errorf("FeedPage(bps, %d, %d) = %v below %d head %d, want %v below max head %d",
				c.from, c.limit, got, below, head, c.want, ids[3])
		}
	}
}

func TestDeliveredCount(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{NoSync: true})
	defer s.Close()
	id1, _ := s.RecordArrival(meta("a", "bps"))
	id2, _ := s.RecordArrival(meta("b", "bps"))
	if s.DeliveredCount("sub") != 0 {
		t.Fatal("fresh subscriber has deliveries")
	}
	if err := s.RecordDelivery(id1, "sub", t0); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordDelivery(id2, "sub", t0); err != nil {
		t.Fatal(err)
	}
	if n := s.DeliveredCount("sub"); n != 2 {
		t.Fatalf("DeliveredCount = %d, want 2", n)
	}
}

// TestGroupIntrospection covers the read-only group surfaces the
// status endpoint and channel engine use: the sorted group list and
// the copied member table.
func TestGroupIntrospection(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{NoSync: true})
	defer s.Close()
	if g := s.Groups(); len(g) != 0 {
		t.Fatalf("Groups on empty store = %v", g)
	}
	if m := s.GroupMembers("nope"); m != nil {
		t.Fatalf("GroupMembers(nope) = %v, want nil", m)
	}

	if err := s.RecordGroupCursor("zeta", "m1", 0, t0); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordGroupCursor("alpha", "m1", 0, t0); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordGroupAttach("alpha", "m2", t0); err != nil {
		t.Fatal(err)
	}

	groups := s.Groups()
	if len(groups) != 2 || groups[0] != "alpha" || groups[1] != "zeta" {
		t.Fatalf("Groups = %v, want [alpha zeta]", groups)
	}
	members := s.GroupMembers("alpha")
	if len(members) != 2 {
		t.Fatalf("GroupMembers(alpha) has %d members, want 2", len(members))
	}
	if !members["m2"].Attached {
		t.Fatal("attached member not reported attached")
	}
	if members["m1"].Attached {
		t.Fatal("cursor-frozen member reported attached")
	}
}

// TestFeedLogNeverShowsAHole commits arrivals into one feed from many
// goroutines while cursor readers page the feed's log the way an HTTP
// poller does (from the id after the last one read). Ids are assigned
// before their commit and commits finish out of order, so a log that
// listed id n+1 while n was still committing would move a reader past
// n for good: the oracle counts such ids as cursor holes.
func TestFeedLogNeverShowsAHole(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{NoSync: true})
	defer s.Close()
	const writers, readers = 8, 4
	perWriter := 500
	if raceEnabled {
		perWriter = 150 // the race detector slows each FeedLog copy tenfold
	}
	ledger := oracle.New()
	done := make(chan struct{})
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(reader string) {
			defer rwg.Done()
			var from uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				var page []uint64
				for _, f := range s.FeedLog("bps") {
					if f.ID >= from {
						page = append(page, f.ID)
					}
				}
				if len(page) > 0 {
					ledger.Page(reader, page...)
					from = page[len(page)-1] + 1
				}
			}
		}(fmt.Sprintf("reader%d", r))
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := s.RecordArrival(meta(fmt.Sprintf("w%d-%d", w, i), "bps")); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	rwg.Wait()

	log := s.FeedLog("bps")
	settled := make([]uint64, len(log))
	for i, f := range log {
		settled[i] = f.ID
		if f.ID != uint64(i+1) {
			t.Fatalf("settled log[%d] has id %d, want %d", i, f.ID, i+1)
		}
	}
	if len(settled) != writers*perWriter {
		t.Fatalf("settled log holds %d ids, want %d", len(settled), writers*perWriter)
	}
	if n := ledger.Holes(settled); n != 0 {
		t.Fatalf("readers passed %d ids the log had not shown yet", n)
	}
}

// TestOldCheckpointFeedOrderSortedAtLoad: a checkpoint written while
// the per-feed lists were kept in apply order, not id order, loads
// into an id-ordered log.
func TestOldCheckpointFeedOrderSortedAtLoad(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{NoSync: true})
	for _, name := range []string{"a", "b", "c"} {
		if _, err := s.RecordArrival(meta(name, "bps")); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	s.feedFiles["bps"] = []uint64{3, 1, 2}
	s.mu.Unlock()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = openTest(t, dir, Options{NoSync: true})
	defer s.Close()
	log := s.FeedLog("bps")
	if len(log) != 3 || log[0].ID != 1 || log[1].ID != 2 || log[2].ID != 3 {
		t.Fatalf("FeedLog after loading an apply-ordered checkpoint = %v, want ids 1 2 3", log)
	}
}
