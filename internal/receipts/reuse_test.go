package receipts

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"bistro/internal/diskfault"
)

// reuseMeta is arrival k of writer w's transaction j (k > 0: derived).
func reuseMeta(w, j, k int) FileMeta {
	name := fmt.Sprintf("w%d-%d-%d", w, j, k)
	return FileMeta{
		Name:       name,
		StagedPath: "feed/" + name,
		Feeds:      []string{"feed", fmt.Sprintf("w%d", w)},
		Size:       int64(w*100000 + j),
		Checksum:   uint32(k + 1),
		Arrived:    t0,
		DataTime:   t0.Add(time.Duration(j) * time.Second),
	}
}

// reuseRecs is writer w's delivery batch j: one to three records.
func reuseRecs(w, j int) []DeliveryRecord {
	recs := make([]DeliveryRecord, 1+j%3)
	for k := range recs {
		recs[k] = DeliveryRecord{ID: uint64(j*4 + k), Sub: fmt.Sprintf("sub%d", w), At: t0.Add(time.Duration(j))}
	}
	return recs
}

// TestCommitBufferReuse runs 8 committers × 1 000 transactions —
// single arrivals, arrivals with two derived files and delivery
// batches — through group commit with the replication hook armed,
// then checks the WAL byte for byte: the pooled encode buffers, ack
// channels and batch arrays are reused under load, so a buffer freed
// too early or a queue entry left behind would show up here as a
// corrupt, missing or doubled transaction.
func TestCommitBufferReuse(t *testing.T) {
	const writers, commits = 8, 1000
	dir := t.TempDir()
	// Real group commit over syncs that cost nothing: the flush window
	// and the batch arrays' reuse run, the disk does not.
	s := openTest(t, dir, Options{
		FS:          diskfault.NoSync(diskfault.OS()),
		GroupCommit: GroupCommitConfig{MaxBatch: 8, MaxDelay: 200 * time.Microsecond},
	})
	var mu sync.Mutex
	var shipped [][]byte
	err := s.ArmShipper(ShipHooks{Batch: func(payloads [][]byte) error {
		mu.Lock()
		defer mu.Unlock()
		for _, p := range payloads {
			shipped = append(shipped, bytes.Clone(p))
		}
		return nil
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < commits; j++ {
				var err error
				switch j % 3 {
				case 0:
					_, err = s.RecordArrival(reuseMeta(w, j, 0))
				case 1:
					_, err = s.RecordArrivalDerived(reuseMeta(w, j, 0), []FileMeta{reuseMeta(w, j, 1), reuseMeta(w, j, 2)})
				case 2:
					err = s.RecordDeliveryBatch(reuseRecs(w, j))
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	lw, err := openWAL(diskfault.OS(), filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	var logged [][]byte
	if err := lw.replay(func(p []byte) error {
		logged = append(logged, bytes.Clone(p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	lw.close()
	if len(logged) != writers*commits || len(shipped) != len(logged) {
		t.Fatalf("%d transactions logged, %d shipped, want %d", len(logged), len(shipped), writers*commits)
	}
	seen := make(map[string]bool)
	for i, p := range logged {
		if !bytes.Equal(p, shipped[i]) {
			t.Fatalf("transaction %d: logged bytes differ from shipped bytes", i)
		}
		ops, err := decodeOps(p)
		if err != nil {
			t.Fatalf("transaction %d: %v", i, err)
		}
		var w, j int
		var want []op
		switch ops[0].kind {
		case recArrival:
			var k int
			if _, err := fmt.Sscanf(ops[0].file.Name, "w%d-%d-%d", &w, &j, &k); err != nil {
				t.Fatalf("transaction %d: arrival %q", i, ops[0].file.Name)
			}
			parent := reuseMeta(w, j, 0)
			parent.ID = ops[0].file.ID
			want = []op{{kind: recArrival, file: parent}}
			if j%3 == 1 {
				for k := 1; k <= 2; k++ {
					d := reuseMeta(w, j, k)
					d.ID, d.Origin = parent.ID+uint64(k), parent.ID
					want = append(want, op{kind: recDerived, file: d})
				}
			}
		case recDelivery:
			if _, err := fmt.Sscanf(ops[0].sub, "sub%d", &w); err != nil {
				t.Fatalf("transaction %d: delivery to %q", i, ops[0].sub)
			}
			j = int(ops[0].at.Sub(t0))
			for _, r := range reuseRecs(w, j) {
				want = append(want, op{kind: recDelivery, id: r.ID, sub: r.Sub, at: r.At})
			}
		default:
			t.Fatalf("transaction %d: record kind %d", i, ops[0].kind)
		}
		key := fmt.Sprintf("%d/%d", w, j)
		if seen[key] {
			t.Fatalf("transaction %s logged twice", key)
		}
		seen[key] = true
		if len(ops) != len(want) {
			t.Fatalf("transaction %s: %d records, want %d", key, len(ops), len(want))
		}
		for k := range ops {
			if !opsEqual(ops[k], want[k]) {
				t.Fatalf("transaction %s record %d:\n got %+v\nwant %+v", key, k, ops[k], want[k])
			}
		}
	}

	// The reopened store agrees.
	r := openTest(t, dir, Options{NoSync: true})
	defer r.Close()
	if got, want := len(r.AllFiles()), writers*(commits/3*4+1); got != want {
		t.Fatalf("reopened store has %d files, want %d", got, want)
	}
	for w := 0; w < writers; w++ {
		if got, want := r.DeliveredCount(fmt.Sprintf("sub%d", w)), deliveries(commits); got != want {
			t.Fatalf("sub%d: %d deliveries, want %d", w, got, want)
		}
	}
}

// deliveries counts the delivery records one writer commits.
func deliveries(commits int) int {
	n := 0
	for j := 2; j < commits; j += 3 {
		n += len(reuseRecs(0, j))
	}
	return n
}

// TestWarmCommitAllocs pins what a warm single-record commit through
// groupAppend allocates: only what applyLocked keeps. A repeated
// delivery receipt keeps nothing; an arrival keeps its *FileMeta (the
// index's amortised growth rounds away). MaxDelay is 0, so the leader
// makes no flush-window timer.
func TestWarmCommitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations distort the counts")
	}
	s := openTest(t, t.TempDir(), Options{GroupCommit: GroupCommitConfig{MaxBatch: 64}})
	defer s.Close()
	id, err := s.RecordArrival(meta("a", "bps"))
	if err != nil {
		t.Fatal(err)
	}
	recs := []DeliveryRecord{{ID: id, Sub: "wh", At: t0}, {ID: id, Sub: "viz", At: t0}}
	arrival := meta("b", "bps")
	for _, tc := range []struct {
		name   string
		commit func() error
		want   float64
	}{
		{"RecordDelivery", func() error { return s.RecordDelivery(id, "wh", t0) }, 0},
		{"RecordDeliveryBatch", func() error { return s.RecordDeliveryBatch(recs) }, 0},
		{"RecordExpire", func() error { return s.RecordExpire(id) }, 0},
		{"RecordArrival", func() error { _, err := s.RecordArrival(arrival); return err }, 1},
	} {
		if err := tc.commit(); err != nil { // warm the pools
			t.Fatal(err)
		}
		var cerr error
		n := testing.AllocsPerRun(50, func() {
			if err := tc.commit(); err != nil {
				cerr = err
			}
		})
		if cerr != nil {
			t.Fatal(cerr)
		}
		if n > tc.want {
			t.Errorf("%s: %.0f allocations per commit, want <= %.0f", tc.name, n, tc.want)
		}
	}
}

// TestRecordArrivalDerivedIDs checks the id contract the caller relies
// on: the parent's id is returned and the derived files take the next
// ids, in order, with Origin set to the parent.
func TestRecordArrivalDerivedIDs(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{NoSync: true})
	defer s.Close()
	if _, err := s.RecordArrival(meta("first", "bps")); err != nil {
		t.Fatal(err)
	}
	id, err := s.RecordArrivalDerived(meta("parent", "bps"), []FileMeta{meta("d1", "x"), meta("d2", "y")})
	if err != nil {
		t.Fatal(err)
	}
	next, err := s.RecordArrival(meta("next", "bps"))
	if err != nil {
		t.Fatal(err)
	}
	if next != id+3 {
		t.Fatalf("next arrival id %d after parent %d with two derived files", next, id)
	}
	for k, name := range []string{"parent", "d1", "d2"} {
		f, ok := s.File(id + uint64(k))
		if !ok || f.Name != name {
			t.Fatalf("id %d: %+v, want %s", id+uint64(k), f, name)
		}
		wantOrigin := id
		if k == 0 {
			wantOrigin = 0
		}
		if f.Origin != wantOrigin {
			t.Fatalf("%s: origin %d, want %d", name, f.Origin, wantOrigin)
		}
	}
	if got := s.FilesInFeed("x"); len(got) != 1 || got[0].ID != id+1 {
		t.Fatalf("feed x indexes %+v, want the first derived file", got)
	}
}
