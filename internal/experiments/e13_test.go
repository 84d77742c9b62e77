package experiments

import (
	"slices"
	"testing"
	"time"

	"bistro/internal/delivery"
)

func TestE13Shape(t *testing.T) {
	tab, err := E13Overhead(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("want classifier + delivery rows: %s", tab.Format())
	}
	cl := row(t, tab, "classifier")
	if num(t, cl[1]) <= 0 || num(t, cl[2]) <= 0 {
		t.Fatalf("classifier timings not positive: %s", tab.Format())
	}
	del := row(t, tab, "delivery")
	if num(t, del[1]) <= 0 || num(t, del[2]) <= 0 {
		t.Fatalf("delivery timings not positive: %s", tab.Format())
	}
}

// TestE13InstrumentationCounts is the deterministic half of the
// observability budget: instrumentation allocates nothing on either
// hot path — allocations per classified file and per delivery are the
// same with metrics on and off — and performs exactly the metric
// updates it exists for, no more.
func TestE13InstrumentationCounts(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations distort the counts")
	}
	t.Run("classifier", func(t *testing.T) {
		perFile := func(on bool) float64 {
			c, names, _ := e13Classifier(100, 2000, on)
			i := 0
			return testing.AllocsPerRun(len(names), func() {
				c.Classify(names[i%len(names)])
				i++
			})
		}
		if bare, instr := perFile(false), perFile(true); instr != bare {
			t.Errorf("allocations per classified file: %v instrumented, %v bare", instr, bare)
		}
		// One pass: every file moves one files_total series by one; a
		// match tried (and reached through the prefix index) exactly its
		// own feed's pattern, a miss reached none.
		c, names, m := e13Classifier(100, 2000, true)
		for _, n := range names {
			c.Classify(n)
		}
		if m.Matched.Value() != 1800 || m.Unmatched.Value() != 200 ||
			m.PatternsTried.Value() != 1800 || m.PrefixIndexHits.Value() != 1800 {
			t.Errorf("2000 files (1800 matching): matched %d, unmatched %d, patterns tried %d, prefix hits %d",
				m.Matched.Value(), m.Unmatched.Value(), m.PatternsTried.Value(), m.PrefixIndexHits.Value())
		}
	})
	t.Run("delivery", func(t *testing.T) {
		const runs = 50
		perDelivery := func(on bool) (float64, *delivery.Metrics) {
			d, err := newE13Delivery(on)
			if err != nil {
				t.Fatal(err)
			}
			defer d.close()
			metas, err := d.stage(runs + 1) // AllocsPerRun adds a warm-up call
			if err != nil {
				t.Fatal(err)
			}
			i := 0
			allocs := testing.AllocsPerRun(runs, func() {
				if err := d.deliver(metas[i : i+1]); err != nil {
					t.Fatal(err)
				}
				i++
			})
			return allocs, d.metrics
		}
		bare, _ := perDelivery(false)
		instr, m := perDelivery(true)
		if instr != bare {
			t.Errorf("allocations per delivery: %v instrumented, %v bare", instr, bare)
		}
		// Each delivery: one delivered and one bytes add, one staged read,
		// one propagation sample, one receipt batch of one; no failure.
		n := int64(runs + 1)
		size := n * int64(len(e13Payload))
		got := []int64{m.Delivered.With("wh").Value(), m.Bytes.With("wh").Value(), m.StagingReadBytes.Value(),
			m.Propagation.Count(), m.ReceiptBatchSize.Count(), m.Failures.With("wh").Value(), m.ReceiptsPending.Value()}
		if want := []int64{n, size, size, n, n, 0, 0}; !slices.Equal(got, want) {
			t.Errorf("%d deliveries: delivered, bytes, staged bytes read, propagation samples, receipt batches, failures, pending = %v, want %v",
				n, got, want)
		}
	})
}

// TestE13OverheadBudget is the wall-clock half of the budget:
// instrumentation may cost the classifier and delivery hot paths less
// than 5%. Each attempt is a min-of-N over short interleaved runs (see
// e13MinPair); the test passes if any attempt lands inside the budget.
func TestE13OverheadBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates atomic-op cost; overhead budget not meaningful")
	}
	if testing.Short() {
		t.Skip("timing-sensitive; skipped in -short mode")
	}

	budget := 1.05
	check := func(name string, trial func() (time.Duration, time.Duration, error)) {
		t.Helper()
		const attempts = 3
		var lastRatio float64
		for a := 0; a < attempts; a++ {
			bare, instr, err := trial()
			if err != nil {
				t.Fatal(err)
			}
			lastRatio = float64(instr) / float64(bare)
			if lastRatio < budget {
				return
			}
		}
		t.Errorf("%s: instrumented/bare = %.3f, budget %.2f", name, lastRatio, budget)
	}

	check("classifier", func() (time.Duration, time.Duration, error) {
		return E13ClassifierTrial(100, 10000, 500)
	})
	check("delivery", func() (time.Duration, time.Duration, error) {
		return E13DeliveryTrial(100)
	})
}
