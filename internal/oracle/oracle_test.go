package oracle

import "testing"

// TestLedgerFlagsEachViolation seeds every kind of violation once into
// an otherwise clean run and checks that exactly its counter moves; the
// clean run itself must read zero everywhere.
func TestLedgerFlagsEachViolation(t *testing.T) {
	type counts struct{ lost, diverged, undelivered, missing, dups, strays, holes int }
	cases := []struct {
		name   string
		mutate func(l *Ledger, rs []Receipt, settled []uint64) ([]Receipt, []uint64)
		want   counts
	}{
		{"clean", nil, counts{}},
		{"acked name missing after restart", func(l *Ledger, rs []Receipt, s []uint64) ([]Receipt, []uint64) {
			return rs[1:], s
		}, counts{lost: 1}},
		{"acked name quarantined after restart", func(l *Ledger, rs []Receipt, s []uint64) ([]Receipt, []uint64) {
			rs[0].Quarantined = true
			return rs, s
		}, counts{lost: 1}},
		{"staged payload not intact", func(l *Ledger, rs []Receipt, s []uint64) ([]Receipt, []uint64) {
			rs[1].Intact = false
			return rs, s
		}, counts{diverged: 1}},
		{"undelivered file", func(l *Ledger, rs []Receipt, s []uint64) ([]Receipt, []uint64) {
			l.Deposit("c", 1, true)
			return append(rs, Receipt{Name: "c", Intact: true}), s
		}, counts{undelivered: 1, missing: 1}},
		{"wrong content delivered", func(l *Ledger, rs []Receipt, s []uint64) ([]Receipt, []uint64) {
			l.Deliver(Push, "wh", "b", 9)
			return rs, s
		}, counts{undelivered: 1, dups: 1}},
		{"second delivery on a zero-duplicate plane", func(l *Ledger, rs []Receipt, s []uint64) ([]Receipt, []uint64) {
			l.Deliver(Push, "wh", "a", 1)
			return rs, s
		}, counts{dups: 1}},
		{"delivery of a file never deposited", func(l *Ledger, rs []Receipt, s []uint64) ([]Receipt, []uint64) {
			l.Deliver(Push, "wh", "zz", 1)
			return rs, s
		}, counts{strays: 1}},
		{"cursor page skips an id", func(l *Ledger, rs []Receipt, s []uint64) ([]Receipt, []uint64) {
			l.Page("p2", 1, 3)
			return rs, s
		}, counts{holes: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := New()
			l.Deposit("a", 1, true)
			l.Deposit("b", 1, true)
			l.Deposit("u", 1, false)
			rs := []Receipt{{Name: "a", Intact: true}, {Name: "b", Intact: true}}
			settled := []uint64{1, 2, 3}
			l.Deliver(Push, "wh", "a", 1)
			l.Deliver(Push, "wh", "b", 1)
			l.Page("p1", 1, 2)
			l.Page("p1", 3)
			if tc.mutate != nil {
				rs, settled = tc.mutate(l, rs, settled)
			}
			unacked := l.Recovered(rs)
			got := counts{
				lost:        l.Lost(),
				diverged:    l.Diverged(),
				undelivered: l.Undelivered(Push, "wh"),
				missing: l.Missing(func(file string, crc uint32) bool {
					return file == "a" || file == "b"
				}),
				dups:   l.Duplicates(Push),
				strays: l.Strays(Push),
				holes:  l.Holes(settled),
			}
			if got != tc.want {
				t.Fatalf("counters %+v, want %+v", got, tc.want)
			}
			if unacked != 0 {
				t.Fatalf("Recovered reported %d unacked receipts, want 0", unacked)
			}
			if l.Attempted() < 3 || l.Acked() < 2 || l.Deliveries(Push) < 2 || l.Delivered(Push, "wh") < 2 {
				t.Fatalf("attempted %d acked %d deliveries %d distinct %d",
					l.Attempted(), l.Acked(), l.Deliveries(Push), l.Delivered(Push, "wh"))
			}
		})
	}
}

// TestRecoveredCountsUnackedReceipts: a receipt whose deposit never got
// an ack is no loss and no divergence, only an unacked arrival.
func TestRecoveredCountsUnackedReceipts(t *testing.T) {
	l := New()
	l.Deposit("a", 1, true)
	l.Deposit("raced", 2, false)
	unacked := l.Recovered([]Receipt{{Name: "a", Intact: true}, {Name: "raced", Intact: true}, {Name: "orphan", Intact: true}})
	if unacked != 2 || l.Lost() != 0 || l.Diverged() != 0 {
		t.Fatalf("unacked %d lost %d diverged %d, want 2 0 0", unacked, l.Lost(), l.Diverged())
	}
}
