package feedlog

import (
	"io"
	"testing"
	"time"

	"bistro/internal/clock"
)

// TestPerFileLinesAllocs pins the per-file bookkeeping of a daemon
// that writes no activity log (the server's default) at zero heap
// objects: the lines are not formatted, and the counters still move.
func TestPerFileLinesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations distort the counts")
	}
	for _, tc := range []struct {
		name string
		clk  clock.Clock
	}{
		{"real clock", clock.NewReal()},
		{"simulated clock", clock.NewSimulated(t0)},
	} {
		l := New(io.Discard, tc.clk)
		// A configured cadence exercises the interval accounting too.
		l.SetExpectation("BPS", time.Hour, 2)
		if n := testing.AllocsPerRun(100, func() {
			l.FileClassified("BPS", "BPS_poller1_2010092504.csv", 4096, t0)
		}); n != 0 {
			t.Errorf("%s: FileClassified allocates %.1f objects", tc.name, n)
		}
		if n := testing.AllocsPerRun(100, func() {
			l.Delivered("BPS", "wh", "BPS_poller1_2010092504.csv")
		}); n != 0 {
			t.Errorf("%s: Delivered allocates %.1f objects", tc.name, n)
		}
		if st, _ := l.Stats("BPS"); st.Files == 0 || st.Delivered == 0 {
			t.Errorf("%s: counters did not move: %+v", tc.name, st)
		}
	}
}
