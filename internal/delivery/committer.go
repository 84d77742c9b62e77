package delivery

import (
	"errors"
	"time"

	"bistro/internal/batch"
	"bistro/internal/config"
	"bistro/internal/receipts"
	"bistro/internal/scheduler"
)

// The ledger half of a delivery. A partition worker stops owning a
// file the moment the subscriber acks its bytes: it queues an
// ackedDelivery here and releases the subscriber's slot. One committer
// goroutine per engine takes everything queued, commits it as a single
// receipt-store transaction, and only then accounts the deliveries
// (stats, propagation, EvDelivered/EvNotified) in queue order. Batching
// needs no timer: while one commit waits out the store's flush window
// the next batch accumulates, and a store that commits at once (NoSync,
// simulated-clock experiments) sees batches of about one.
//
// Trigger commands do not run on the committer: it hands them to the
// subscriber's own ordered lane (triggerLane), so a slow or hung
// subscriber script costs that subscriber's wire and nobody's receipts.
//
// The contract is unchanged from the synchronous engine: EvDelivered
// means the receipt is durable (and shipped to the standby); a crash
// between wire ack and commit re-sends after restart — at most the
// uncommitted batch per subscriber instead of one file.

// receiptQueueDepth bounds the committer's FIFO. Workers block on a
// full queue, so a stalled disk holds back the wire instead of growing
// memory; 256 is four of the default flush windows' worth (max_batch
// 64), far more than a healthy store lets accumulate.
const receiptQueueDepth = 256

// ackedDelivery is one transfer the subscriber has acked whose receipt
// is not yet durable.
type ackedDelivery struct {
	fileID   uint64
	sub      string
	feed     string
	name     string // destination-relative name, as events report it
	size     int64
	arrived  time.Time
	dataTime time.Time
	at       time.Time // wire ack
	backfill bool
	// lane is the subscriber's trigger lane with one slot reserved for
	// this file; nil when the subscriber has no trigger.
	lane *triggerLane
}

// triggerLaneDepth bounds how many acked deliveries may wait for one
// subscriber's trigger command: one flush window's worth (max_batch
// 64), so a healthy script never holds the wire back and a hung one
// holds a bounded number of records.
const triggerLaneDepth = 64

// triggerLane runs one subscriber's trigger processing in delivery
// order on a goroutine of its own. Every acked file takes a slot before
// its receipt is queued and holds it until its trigger has run, so
// calls always has room for a committed file and the committer never
// waits on a subscriber's script. While the lane is full the
// subscriber's in-flight slot stays taken (queueReceipt): its wire
// waits for its script, as it did when triggers ran on the worker.
type triggerLane struct {
	slots chan struct{}
	calls chan triggerCall
}

type triggerCall struct {
	sub, feed string
	spec      config.TriggerSpec
	file      batch.File
}

// triggerLaneOf returns s's trigger lane, nil when s has no trigger.
// Only partition workers call it, so no lane is created once Stop has
// seen them exit.
func (e *Engine) triggerLaneOf(s *config.Subscriber) *triggerLane {
	if s.Trigger.Mode == config.TriggerNone {
		return nil
	}
	e.unrecMu.Lock()
	defer e.unrecMu.Unlock()
	l := e.trigLanes[s.Name]
	if l == nil {
		l = &triggerLane{
			slots: make(chan struct{}, triggerLaneDepth),
			calls: make(chan triggerCall, triggerLaneDepth),
		}
		e.trigLanes[s.Name] = l
		e.trigWG.Add(1)
		go e.runTriggers(l)
	}
	return l
}

func (e *Engine) runTriggers(l *triggerLane) {
	defer e.trigWG.Done()
	for c := range l.calls {
		e.trig.FileDelivered(c.sub, c.feed, c.spec, c.file)
		<-l.slots
	}
}

// stopTriggers runs every queued trigger call and ends the lanes. The
// committer, their only sender, has exited.
func (e *Engine) stopTriggers() {
	e.unrecMu.Lock()
	for _, l := range e.trigLanes {
		close(l.calls)
	}
	e.unrecMu.Unlock()
	e.trigWG.Wait()
}

// queueReceipt hands job j's acked delivery to the committer and
// releases the subscriber's in-flight slot. The (subscriber, file) pair
// is marked unrecorded first, so a queue recomputation that runs before
// the commit does not send the file a second time; the receipt is
// queued before the slot is released, so the FIFO holds a subscriber's
// files in wire order. Blocks while the FIFO is full.
func (e *Engine) queueReceipt(s *config.Subscriber, j *scheduler.Job, d ackedDelivery) {
	e.unrecMu.Lock()
	ids := e.unrecorded[d.sub]
	if ids == nil {
		ids = make(map[uint64]struct{})
		e.unrecorded[d.sub] = ids
	}
	ids[d.fileID] = struct{}{}
	e.unrecMu.Unlock()
	if m := e.opts.Metrics; m != nil {
		m.ReceiptsPending.Add(1)
	}
	if d.lane = e.triggerLaneOf(s); d.lane != nil {
		select {
		case d.lane.slots <- struct{}{}:
		default:
			// The subscriber's script is a whole lane behind. Its slot
			// stays taken until the lane has room, but not this worker,
			// which may hold other subscribers' jobs for the same file.
			e.wg.Add(1)
			go e.queueWhenLaneFree(j, d)
			return
		}
	}
	e.acked <- d
	e.sched.Done(j)
}

// queueWhenLaneFree is queueReceipt's wait for a full trigger lane. It
// is a method of its own, not a closure, so that only this rare path
// moves d to the heap.
func (e *Engine) queueWhenLaneFree(j *scheduler.Job, d ackedDelivery) {
	defer e.wg.Done()
	d.lane.slots <- struct{}{}
	e.acked <- d
	e.sched.Done(j)
}

// unrecordedFor snapshots the files acked by sub whose receipts are
// still with the committer (nil when there are none). Callers that
// recompute a queue from the receipt store take the snapshot BEFORE
// reading the store: a pair leaves this set only after the store has
// it, so whatever is missing from both was not yet acked.
func (e *Engine) unrecordedFor(sub string) map[uint64]struct{} {
	e.unrecMu.Lock()
	defer e.unrecMu.Unlock()
	ids := e.unrecorded[sub]
	if len(ids) == 0 {
		return nil
	}
	out := make(map[uint64]struct{}, len(ids))
	for id := range ids {
		out[id] = struct{}{}
	}
	return out
}

// isUnrecorded reports whether file id was acked by sub and its receipt
// is still with the committer.
func (e *Engine) isUnrecorded(sub string, id uint64) bool {
	e.unrecMu.Lock()
	defer e.unrecMu.Unlock()
	_, ok := e.unrecorded[sub][id]
	return ok
}

// commitLoop is the receipt committer: it runs until Stop closes the
// FIFO, and commits everything still queued before it exits.
func (e *Engine) commitLoop() {
	defer close(e.commitDone)
	var ds []ackedDelivery
	var recs []receipts.DeliveryRecord
	for d := range e.acked {
		ds = append(ds[:0], d)
	drain:
		for {
			select {
			case d, ok := <-e.acked:
				if !ok {
					break drain
				}
				ds = append(ds, d)
			default:
				break drain
			}
		}
		recs = e.commitBatch(ds, recs[:0])
	}
}

// commitBatch makes one batch of acked deliveries durable and accounts
// each of them, in queue order. A failed commit fails the whole batch:
// the subscribers have the files but the ledger does not know. The
// transfers are not retried (re-sending after restart is the safe
// direction) and not accounted as delivered — one outcome per file,
// the distinct receipt-write-failed counter + event the server alarms
// on.
//
// The records are built in recs, which commitBatch returns for the
// next batch: RecordDeliveryBatch keeps no reference to them.
func (e *Engine) commitBatch(ds []ackedDelivery, recs []receipts.DeliveryRecord) []receipts.DeliveryRecord {
	for _, d := range ds {
		recs = append(recs, receipts.DeliveryRecord{ID: d.fileID, Sub: d.sub, At: d.at})
	}
	err := e.store.RecordDeliveryBatch(recs)
	if errors.Is(err, receipts.ErrCheckpoint) {
		// The receipts are durable; only the checkpoint behind them
		// failed. The deliveries stand and the store's trouble is
		// raised once, not as a batch of failed files.
		e.receiptWriteFailed("", "", "", 0, err)
		err = nil
	}
	m := e.opts.Metrics
	if m != nil {
		m.ReceiptBatchSize.Observe(float64(len(ds)))
	}
	// The receipts are in the store (or will never be): the pairs leave
	// the unrecorded set before anything is announced, so whoever reacts
	// to an event sees the store and the set agree.
	e.unrecMu.Lock()
	for _, d := range ds {
		delete(e.unrecorded[d.sub], d.fileID)
	}
	e.unrecMu.Unlock()
	if m != nil {
		m.ReceiptsPending.Add(-int64(len(ds)))
	}
	for _, d := range ds {
		if err != nil {
			e.bumpStats(d.sub, false, 0)
			e.receiptWriteFailed(d.sub, d.feed, d.name, d.fileID, err)
			if d.lane != nil {
				<-d.lane.slots
			}
			continue
		}
		e.bumpStats(d.sub, true, d.size)
		if m != nil && !d.backfill {
			m.Propagation.Observe(e.clk.Now().Sub(d.arrived).Seconds())
		}
		kind, trig := EvDelivered, config.TriggerSpec{}
		if s := e.subscriber(d.sub); s != nil {
			trig = s.Trigger
			if s.Method == config.MethodNotify {
				kind = EvNotified
			}
		}
		e.emit(Event{Kind: kind, Subscriber: d.sub, Feed: d.feed, Name: d.name, FileID: d.fileID})
		if d.lane != nil {
			d.lane.calls <- triggerCall{sub: d.sub, feed: d.feed, spec: trig, file: batch.File{
				Name:     d.name,
				FileID:   d.fileID,
				DataTime: d.dataTime,
				Arrived:  d.arrived,
			}}
		}
	}
	return recs
}
