// Package oracle checks Bistro's delivery contract (docs/TESTING.md,
// "Delivery contracts") in one place. A Ledger is fed what a run did —
// deposits and whether their source got an ack, what a restarted store
// recovered, every delivery on every plane, and the pages a cursor read
// — and reports each violation of the contract as a counter: acked
// loss, staged divergence, undelivered files, duplicates per (plane,
// subscriber, file) and cursor holes. The fault-injecting experiments
// and the tests of the delivery packages feed it and assert on its
// counters instead of keeping their own acked maps and duplicate
// counts. It imports no bistro package, so any package's tests can use
// it without an import cycle.
//
// The ledger counts every duplicate; the caller asserts its plane's
// bound. The contract allows duplicates in three documented windows,
// and only a run that opens one may see them:
//
//   - push is at-least-once on the wire: a crash between a subscriber's
//     wire ack and the receipt commit re-sends the uncommitted batch
//     (a daemon with DedupByID acks the re-send without rewriting, so
//     its destination sees the file once);
//   - a channel member may get a file again after a server restart,
//     when it acked the file but the group record or its cursor advance
//     had not committed;
//   - a replay session that opens inside a file's ack-to-commit window
//     may stream that file twice: the session skips a delivered file by
//     its receipt, which is not committed yet.
//
// A window loosens no test: a run that opens none of them asserts zero
// duplicates.
package oracle

import "sync"

// Plane names a delivery plane of the contract table.
type Plane string

// The planes the harnesses feed.
const (
	Push    Plane = "push"
	Channel Plane = "channel"
	Replay  Plane = "replay"
	HTTP    Plane = "http"
)

// Ledger is one run's record. Its methods are safe for concurrent use.
type Ledger struct {
	mu        sync.Mutex
	deposits  map[string]deposit
	attempted int
	acked     int
	lost      int
	diverged  int

	got        map[slot]uint32 // content CRC last delivered per (plane, subscriber, file)
	distinct   map[seat]int    // distinct files per (plane, subscriber)
	deliveries map[Plane]int
	duplicates map[Plane]int

	cursors map[string]*cursor
}

type deposit struct {
	crc   uint32
	acked bool
}

type seat struct {
	plane Plane
	sub   string
}

type slot struct {
	seat
	file string
}

type cursor struct {
	read map[uint64]bool
	max  uint64
}

// New returns an empty ledger.
func New() *Ledger {
	return &Ledger{
		deposits:   make(map[string]deposit),
		got:        make(map[slot]uint32),
		distinct:   make(map[seat]int),
		deliveries: make(map[Plane]int),
		duplicates: make(map[Plane]int),
		cursors:    make(map[string]*cursor),
	}
}

// Deposit records one deposit of name whose payload has CRC-32 crc;
// acked says whether the source got an ack. A plan's outputs are
// deposits too, acked by their parent's ack.
func (l *Ledger) Deposit(name string, crc uint32, acked bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	d := l.deposits[name]
	d.crc = crc
	if acked {
		l.acked++
		d.acked = true
	}
	l.deposits[name] = d
}

// Attempted returns the number of deposits recorded.
func (l *Ledger) Attempted() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.attempted
}

// Acked returns the number of deposits whose source got an ack.
func (l *Ledger) Acked() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.acked
}

// Receipt is one arrival receipt a restarted store recovered.
type Receipt struct {
	Name string
	// Quarantined receipts are withdrawn from every consumer.
	Quarantined bool
	// Intact says the receipt's payload checks out against staging, the
	// archive or quarantine, as the receipt's state says.
	Intact bool
}

// Recovered checks what a (re)started store holds. Every acked deposit
// must have a receipt that is not quarantined, or it counts as acked
// loss. Every receipt that is not Intact counts as a divergence. Both
// counts accumulate over restarts. Recovered returns how many receipts
// name no acked deposit: arrivals whose commit raced a cut, or orphans
// a restart re-ingested.
func (l *Ledger) Recovered(rs []Receipt) (unacked int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	held := make(map[string]bool, len(rs))
	for _, r := range rs {
		if !r.Intact {
			l.diverged++
		}
		held[r.Name] = held[r.Name] || !r.Quarantined
		if !l.deposits[r.Name].acked {
			unacked++
		}
	}
	for name, d := range l.deposits {
		if d.acked && !held[name] {
			l.lost++
		}
	}
	return unacked
}

// Lost returns the acked deposits some restart did not recover.
func (l *Ledger) Lost() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lost
}

// Diverged returns the recovered receipts whose payload was not intact.
func (l *Ledger) Diverged() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.diverged
}

// Deliver records one delivery of file to sub on plane p, with the
// CRC-32 of the content delivered, and reports whether it was sub's
// first of file on p. Undelivered compares crc with the deposit's; a
// plane checked at its destination with Missing may pass 0.
func (l *Ledger) Deliver(p Plane, sub, file string, crc uint32) (first bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.deliveries[p]++
	k := slot{seat{p, sub}, file}
	_, seen := l.got[k]
	if seen {
		l.duplicates[p]++
	} else {
		l.distinct[k.seat]++
	}
	l.got[k] = crc
	return !seen
}

// Deliveries returns the deliveries plane p has seen, duplicates
// included.
func (l *Ledger) Deliveries(p Plane) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.deliveries[p]
}

// Delivered returns how many distinct files sub got on plane p.
func (l *Ledger) Delivered(p Plane, sub string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.distinct[seat{p, sub}]
}

// Duplicates returns, over every (subscriber, file) of plane p, the
// deliveries beyond the first.
func (l *Ledger) Duplicates(p Plane) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.duplicates[p]
}

// Strays returns the (subscriber, file) pairs of plane p whose file was
// never deposited.
func (l *Ledger) Strays(p Plane) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for k := range l.got {
		if _, ok := l.deposits[k.file]; k.plane == p && !ok {
			n++
		}
	}
	return n
}

// Undelivered returns, summed over subs, the acked deposits a
// subscriber never got on plane p with the deposited content.
func (l *Ledger) Undelivered(p Plane, subs ...string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, sub := range subs {
		for name, d := range l.deposits {
			if !d.acked {
				continue
			}
			if crc, ok := l.got[slot{seat{p, sub}, name}]; !ok || crc != d.crc {
				n++
			}
		}
	}
	return n
}

// Missing returns the acked deposits that holds reports absent, for a
// plane checked at its destination: holds reports whether the
// destination has file with content crc. It runs without the ledger's
// lock held.
func (l *Ledger) Missing(holds func(file string, crc uint32) bool) int {
	l.mu.Lock()
	acked := make(map[string]uint32, l.acked)
	for name, d := range l.deposits {
		if d.acked {
			acked[name] = d.crc
		}
	}
	l.mu.Unlock()
	n := 0
	for name, crc := range acked {
		if !holds(name, crc) {
			n++
		}
	}
	return n
}

// Page records one page the cursor of reader read: the ids it listed,
// in order.
func (l *Ledger) Page(reader string, ids ...uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := l.cursors[reader]
	if c == nil {
		c = &cursor{read: make(map[uint64]bool)}
		l.cursors[reader] = c
	}
	for _, id := range ids {
		c.read[id] = true
		c.max = max(c.max, id)
	}
}

// Holes returns, summed over every cursor, the ids of the settled log
// that the cursor passed without reading them: ids below the highest
// one it read that it never read. A client that moves its cursor past
// a page never comes back for them.
func (l *Ledger) Holes(settled []uint64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, c := range l.cursors {
		for _, id := range settled {
			if id < c.max && !c.read[id] {
				n++
			}
		}
	}
	return n
}
