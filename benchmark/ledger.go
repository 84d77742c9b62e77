//go:build linux

package benchmark

import (
	"bytes"
	"strings"
	"sync"
	"time"
)

// phase says which part of the run a deposit belongs to.
type phase uint8

const (
	phaseWarmup phase = iota
	phasePaced
	phaseSaturated
)

// fileRec is the harness's record of one deposit: the generator's
// expectation, the source-side clocks and what the consumer saw.
type fileRec struct {
	k      int // index in the seeded sequence
	phase  phase
	conn   int
	credit bool // holds a slot of its connection's credit window
	name   string
	size   int
	crc    uint32
	ref    *PlanRef

	due      time.Time // open-loop schedule (zero in closed-loop phases)
	ready    time.Time // open loop: when it was both due and had a free connection
	started  time.Time
	acked    time.Time // zero until the source holds the durable ack
	err      error
	got      int       // delivered outputs verified so far
	extra    int       // outputs beyond the expected number (duplicates)
	arrived  time.Time // first byte-complete output in the consumer's hands
	received time.Time // last expected output verified
	receipt  time.Time // last delivery receipt (traced runs)
}

// ledger is the oracle's book: every deposit attempted, keyed by its
// index in the seeded sequence and by landing name.
type ledger struct {
	outputs int

	mu       sync.Mutex
	recs     []*fileRec
	byName   map[string]int
	acked    int // deposits the source holds a durable ack for
	complete int // acked deposits whose every output is verified
	unknown  int // deliveries naming no deposit
	corrupt  int // size, CRC or record-count mismatches
	// onComplete runs (outside the lock) when a deposit's last expected
	// output is verified.
	onComplete func(rec *fileRec)
}

func newLedger(outputs int) *ledger {
	return &ledger{outputs: outputs, byName: make(map[string]int)}
}

// register books deposit k before it is uploaded.
func (l *ledger) register(k int, f File, ph phase, conn int, due time.Time, credit bool) *fileRec {
	rec := &fileRec{k: k, phase: ph, conn: conn, credit: credit, name: f.Name,
		size: len(f.Data), crc: f.CRC, ref: f.Ref, due: due}
	l.mu.Lock()
	for len(l.recs) <= k {
		l.recs = append(l.recs, nil)
	}
	l.recs[k] = rec
	l.byName[f.Name] = k
	l.mu.Unlock()
	return rec
}

func (l *ledger) uploaded(rec *fileRec, started, acked time.Time, err error) {
	l.mu.Lock()
	rec.started = started
	if err != nil {
		rec.err = err
	} else {
		rec.acked = acked
		l.acked++
	}
	l.mu.Unlock()
}

// readyAt books when paced deposit k could first have been sent.
func (l *ledger) readyAt(k int, ready time.Time) {
	l.mu.Lock()
	l.recs[k].ready = ready
	l.mu.Unlock()
}

// landingName recovers the deposit's landing name from a delivered
// path ("<dest>/<feed path>/srcN/<file>") and reports the feed path.
func landingName(rel string) (name, feed string, ok bool) {
	i := strings.Index(rel, "/src")
	if i < 0 {
		return "", "", false
	}
	feed = rel[:i]
	if j := strings.Index(feed, "/"); j >= 0 {
		feed = feed[j+1:] // drop the subscriber's dest prefix
	}
	return rel[i+1:], feed, true
}

// stray books a delivery that names no deposit.
func (l *ledger) stray() {
	l.mu.Lock()
	l.unknown++
	l.mu.Unlock()
}

// delivered books one output the consumer holds: arrivedAt is when its
// bytes were complete, data is what was received (checked here against
// the generator's expectation), feed the feed it came through.
func (l *ledger) delivered(name, feed string, data []byte, arrivedAt time.Time) {
	l.mu.Lock()
	var rec *fileRec
	if k, ok := l.byName[name]; ok {
		rec = l.recs[k]
	}
	l.mu.Unlock()
	if rec == nil {
		l.stray()
		return
	}
	// The expectation fields are immutable once registered, so the CRC
	// pass runs outside the lock.
	good := matches(rec, feed, data)
	verifiedAt := time.Now()
	l.mu.Lock()
	if !good {
		l.corrupt++
	}
	rec.got++
	if rec.got == 1 {
		rec.arrived = arrivedAt
	}
	if rec.got > l.outputs {
		rec.extra++
	}
	done := rec.got == l.outputs
	if done {
		rec.received = verifiedAt
		l.complete++
	}
	l.mu.Unlock()
	if done && l.onComplete != nil {
		l.onComplete(rec)
	}
}

// matches checks one delivered output against the generator. Plan-less
// outputs must be the deposited bytes; plan outputs must carry exactly
// the reference record count for their derived feed, every record
// widened by the two enrich columns.
func matches(rec *fileRec, feed string, data []byte) bool {
	if rec.ref == nil {
		return len(data) == rec.size && crcOf(data) == rec.crc
	}
	want := rec.ref.East
	if feed == "WEST" {
		want = rec.ref.West
	}
	lines := bytes.Count(data, []byte{'\n'})
	return lines == want && bytes.Count(data, []byte{','}) == 5*lines
}

// receipt books a delivery receipt for name (traced runs).
func (l *ledger) receipt(name string, at time.Time) {
	l.mu.Lock()
	if k, ok := l.byName[name]; ok {
		l.recs[k].receipt = at
	}
	l.mu.Unlock()
}

// snapshot copies the records for analysis after the load.
func (l *ledger) snapshot() []fileRec {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]fileRec, 0, len(l.recs))
	for _, r := range l.recs {
		if r != nil {
			out = append(out, *r)
		}
	}
	return out
}

// pending counts acked deposits the consumer does not hold yet. A
// delivery can be verified before its ack reaches the source, so the
// figure may briefly read negative.
func (l *ledger) pending() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.acked - l.complete
}
