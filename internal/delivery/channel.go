// Channel fan-out: shared per-feed delivery channels (ROADMAP item 1,
// modeled on the BAD project's data channels). A channel binds one
// feed to a subscription group in the receipt store. Each staged file
// produces ONE channel job; the worker that claims it reads the file
// once and fans the same byte slab out to every attached member, then
// commits a single group-delivery record. Cost per file is one
// staging read + one WAL record regardless of member count — the
// delivery side scales O(files), not O(subscribers × files).
//
// Exactly-once per member rests on the group's delivery log:
//
//   - The channel's synthetic scheduler key carries the default
//     one-in-flight cap, so fan-outs are serialized and log append
//     order equals delivery order.
//   - A member that fails mid-fan-out is durably detached BEFORE the
//     file's group-delivery record, freezing its cursor below the
//     file. Catch-up later walks log[cursor:frontier) one file at a
//     time, advancing the durable cursor after each delivery, and
//     re-attaches under the fan-out barrier once it reaches the
//     frontier.
//   - A crash between the byte fan-out and the group-delivery record
//     re-fans the file on restart (channel backfill): members may see
//     a duplicate, never a hole — the same safe direction the
//     per-subscriber path takes.
package delivery

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"bistro/internal/backoff"
	"bistro/internal/batch"
	"bistro/internal/config"
	"bistro/internal/receipts"
	"bistro/internal/scheduler"
	"bistro/internal/transport"
)

// ChannelSpec configures one shared delivery channel.
type ChannelSpec struct {
	// Name is the channel (and receipt-store group) name.
	Name string
	// Feed is the leaf feed the channel fans out.
	Feed string
	// Members are the initially configured member subscribers; more
	// can join at runtime via AttachChannelMember.
	Members []string
}

// channel is one broker's in-memory state. mu is the fan-out barrier:
// it is held across an entire file fan-out + group-delivery commit, so
// attach (which snaps a member's cursor to the frontier) can never
// interleave with a half-delivered file.
type channel struct {
	name string
	feed string
	seed []string // configured members, registered durably at Start

	mu       sync.Mutex
	attached map[string]bool
	catchup  map[string]bool // members with a live catch-up goroutine
	files    int64
	fanout   int64
	detaches int64
}

// chanKey is the synthetic scheduler-queue key for a channel; the "#"
// prefix keeps it out of the subscriber namespace (config names are
// identifiers).
func chanKey(name string) string { return "#chan:" + name }

// initChannels builds broker state from the configured specs (called
// from New; no WAL writes here — durable registration happens in
// Start, after the store is fully replayed).
func (e *Engine) initChannels(specs []ChannelSpec) error {
	for _, sp := range specs {
		if sp.Name == "" || sp.Feed == "" {
			return fmt.Errorf("delivery: channel needs a name and a feed")
		}
		if _, dup := e.channels[sp.Name]; dup {
			return fmt.Errorf("delivery: duplicate channel %q", sp.Name)
		}
		ch := &channel{
			name:     sp.Name,
			feed:     sp.Feed,
			seed:     append([]string(nil), sp.Members...),
			attached: make(map[string]bool),
			catchup:  make(map[string]bool),
		}
		e.channels[sp.Name] = ch
		e.chanFeeds[sp.Feed] = append(e.chanFeeds[sp.Feed], ch)
		for _, m := range sp.Members {
			e.memberChans[m] = append(e.memberChans[m], sp.Name)
		}
		e.store.EnsureGroup(sp.Name)
		if err := e.sched.AssignSubscriber(chanKey(sp.Name), e.channelPartition()); err != nil {
			return err
		}
	}
	return nil
}

// channelPartition routes channel jobs to the last non-replay
// partition (the bulk pool — one fan-out serves many members, so it
// competes with bulk traffic, not the interactive lane).
func (e *Engine) channelPartition() int {
	last := len(e.opts.Scheduler.Partitions) - 1
	if e.opts.ReplayPartition > 0 && last == e.opts.ReplayPartition && last > 0 {
		last--
	}
	return last
}

// startChannels restores durable membership and queues the channel
// backlog (files in the feed not yet in the group log — covers both
// server restart and files that arrived while the server was down).
func (e *Engine) startChannels() {
	now := e.clk.Now()
	names := make([]string, 0, len(e.channels))
	for name := range e.channels {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ch := e.channels[name]
		known := e.store.GroupMembers(ch.name)
		for _, m := range ch.seed {
			if _, ok := known[m]; ok {
				continue
			}
			// First registration: durable cursor 0, so the member's
			// full-history entitlement survives a crash before its
			// catch-up finishes.
			if err := e.store.RecordGroupCursor(ch.name, m, 0, now); err != nil {
				e.emit(Event{Kind: EvReceiptWriteFailed, Subscriber: m, Feed: ch.feed, Name: ch.name, Err: err})
			}
		}
		for sub, st := range e.store.GroupMembers(ch.name) {
			e.rememberMember(sub, ch.name)
			if st.Attached {
				// WAL replay order guarantees an attached member's
				// cursor equals the frontier; it rides the fan-out
				// directly.
				ch.mu.Lock()
				ch.attached[sub] = true
				ch.mu.Unlock()
			} else {
				e.startCatchup(ch, sub)
			}
		}
		e.setMembersGauge(ch)
		e.queueChannelBackfill(ch, now)
	}
}

// queueChannelBackfill submits one channel job for every unexpired
// file in the channel's feed that is not yet in the group log.
func (e *Engine) queueChannelBackfill(ch *channel, now time.Time) {
	for _, meta := range e.store.FilesInFeed(ch.feed) {
		if _, covered := e.store.GroupCovers(ch.name, meta.ID); covered {
			continue
		}
		e.submitChannelJob(ch, meta, now, now.Add(e.opts.Deadline), true)
	}
}

// enqueueChannels submits one channel job per channel covering any of
// the file's feeds (called from EnqueueFile for fresh arrivals).
func (e *Engine) enqueueChannels(meta receipts.FileMeta, now time.Time, backfill bool) {
	e.mu.Lock()
	var chans []*channel
	seen := make(map[string]bool)
	for _, feed := range meta.Feeds {
		for _, ch := range e.chanFeeds[feed] {
			if !seen[ch.name] {
				seen[ch.name] = true
				chans = append(chans, ch)
			}
		}
	}
	e.mu.Unlock()
	for _, ch := range chans {
		e.submitChannelJob(ch, meta, now, meta.Arrived.Add(e.opts.Deadline), backfill)
	}
}

func (e *Engine) submitChannelJob(ch *channel, meta receipts.FileMeta, now, deadline time.Time, backfill bool) {
	e.sched.Submit(&scheduler.Job{
		FileID:     meta.ID,
		Feed:       ch.feed,
		Subscriber: chanKey(ch.name),
		Channel:    ch.name,
		Path:       meta.StagedPath,
		Size:       meta.Size,
		Release:    now,
		Deadline:   deadline,
		Priority:   10 + e.opts.FeedPriority[ch.feed],
		Backfill:   backfill,
	})
}

// channelCovered reports whether sub is a registered member (attached
// or not) of any channel on one of feeds — such files reach the member
// through the channel, never as individual jobs.
func (e *Engine) channelCovered(sub string, feeds []string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, name := range e.memberChans[sub] {
		ch := e.channels[name]
		if ch == nil {
			continue
		}
		for _, f := range feeds {
			if f == ch.feed {
				return true
			}
		}
	}
	return false
}

// channelsOf returns the channels sub is registered with.
func (e *Engine) channelsOf(sub string) []*channel {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []*channel
	for _, name := range e.memberChans[sub] {
		if ch := e.channels[name]; ch != nil {
			out = append(out, ch)
		}
	}
	return out
}

// rememberMember adds sub → channel to the registration index.
func (e *Engine) rememberMember(sub, channel string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, name := range e.memberChans[sub] {
		if name == channel {
			return
		}
	}
	e.memberChans[sub] = append(e.memberChans[sub], channel)
}

func (e *Engine) setMembersGauge(ch *channel) {
	m := e.opts.Metrics
	if m == nil {
		return
	}
	ch.mu.Lock()
	n := len(ch.attached)
	ch.mu.Unlock()
	m.ChannelMembers.With(ch.name).Set(int64(n))
}

// AttachChannelMember registers sub as a member of the named channel
// (durably, at cursor 0 when previously unknown — full available
// history) and starts catch-up toward attachment. The subscriber must
// already be registered with the engine and the transport.
func (e *Engine) AttachChannelMember(channel, sub string) error {
	e.mu.Lock()
	ch := e.channels[channel]
	e.mu.Unlock()
	if ch == nil {
		return fmt.Errorf("delivery: unknown channel %q", channel)
	}
	if e.subscriber(sub) == nil {
		return fmt.Errorf("delivery: unknown subscriber %q", sub)
	}
	if _, known := e.store.GroupMemberState(channel, sub); !known {
		if err := e.store.RecordGroupCursor(channel, sub, 0, e.clk.Now()); err != nil {
			return err
		}
	}
	e.rememberMember(sub, channel)
	e.startCatchup(ch, sub)
	return nil
}

// DetachChannelMember durably removes sub from the channel's fan-out,
// freezing its cursor; it stays registered and resumes (catch-up →
// re-attach) on its next backfill trigger — probe recovery, restart,
// or an explicit AttachChannelMember.
func (e *Engine) DetachChannelMember(channel, sub string) error {
	e.mu.Lock()
	ch := e.channels[channel]
	e.mu.Unlock()
	if ch == nil {
		return fmt.Errorf("delivery: unknown channel %q", channel)
	}
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if !ch.attached[sub] {
		return nil
	}
	if err := e.store.RecordGroupDetach(ch.name, sub, e.clk.Now()); err != nil {
		return err
	}
	delete(ch.attached, sub)
	e.setMembersGaugeLocked(ch)
	e.emit(Event{Kind: EvChannelDetached, Subscriber: sub, Feed: ch.feed, Name: ch.name})
	return nil
}

// RemoveChannelMember forgets sub entirely: its cursor is dropped and
// any compaction hold it imposed is released.
func (e *Engine) RemoveChannelMember(channel, sub string) error {
	e.mu.Lock()
	ch := e.channels[channel]
	e.mu.Unlock()
	if ch == nil {
		return fmt.Errorf("delivery: unknown channel %q", channel)
	}
	ch.mu.Lock()
	wasAttached := ch.attached[sub]
	delete(ch.attached, sub)
	ch.mu.Unlock()
	if err := e.store.RecordGroupForget(channel, sub); err != nil {
		return err
	}
	e.mu.Lock()
	names := e.memberChans[sub]
	for i, name := range names {
		if name == channel {
			e.memberChans[sub] = append(names[:i], names[i+1:]...)
			break
		}
	}
	if len(e.memberChans[sub]) == 0 {
		delete(e.memberChans, sub)
	}
	e.mu.Unlock()
	if wasAttached {
		e.setMembersGauge(ch)
	}
	return nil
}

// setMembersGaugeLocked mirrors the attached count; caller holds ch.mu.
func (e *Engine) setMembersGaugeLocked(ch *channel) {
	if m := e.opts.Metrics; m != nil {
		m.ChannelMembers.With(ch.name).Set(int64(len(ch.attached)))
	}
}

// channelDeliver fans one staged file's bytes out to every attached
// member and commits a single group-delivery record. Runs with the
// channel's fan-out barrier held for the whole file, and with fan-outs
// serialized by the channel's scheduler key, so log append order is
// exactly delivery order. It reports whether a member's transfer ran
// past its deadline (and so may still be reading data).
func (e *Engine) channelDeliver(j *scheduler.Job, data []byte, meta receipts.FileMeta) (abandoned bool) {
	defer e.sched.Done(j)
	e.mu.Lock()
	ch := e.channels[j.Channel]
	e.mu.Unlock()
	if ch == nil {
		return false
	}
	// Failure handling (breaker, catch-up restart) re-acquires ch.mu,
	// so it runs after the fan-out barrier is released.
	failures := e.channelFanOut(ch, j, data, meta)
	for _, f := range failures {
		e.channelMemberFailed(ch, f.sub, f.err)
		abandoned = abandoned || errors.Is(f.err, backoff.ErrDeadline)
	}
	return abandoned
}

// memberFailure is a mid-fan-out transfer failure deferred past the
// fan-out barrier.
type memberFailure struct {
	sub string
	err error
}

// channelFanOut performs the locked portion of a channel delivery and
// returns the members whose transfers failed.
func (e *Engine) channelFanOut(ch *channel, j *scheduler.Job, data []byte, meta receipts.FileMeta) []memberFailure {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if _, covered := e.store.GroupCovers(ch.name, j.FileID); covered {
		// Restart re-queue or duplicate submit: the log already has the
		// file, every member is accounted.
		return nil
	}
	var failures []memberFailure
	members := make([]string, 0, len(ch.attached))
	for m := range ch.attached {
		members = append(members, m)
	}
	sort.Strings(members)
	now := e.clk.Now()
	delivered := make([]string, 0, len(members))
	recordOK := true
	for _, sub := range members {
		s := e.subscriber(sub)
		if s == nil {
			// Unregistered mid-flight: freeze its cursor below the file.
			if err := e.store.RecordGroupDetach(ch.name, sub, now); err != nil {
				recordOK = false
				e.receiptWriteFailed(sub, ch.feed, ch.name, j.FileID, err)
			}
			delete(ch.attached, sub)
			continue
		}
		f := transport.File{
			FileID: j.FileID,
			Feed:   ch.feed,
			Name:   destName(s, j.Path),
			Data:   data,
			CRC:    meta.Checksum,
			Size:   meta.Size,
		}
		if err := e.transferTo(s, f); err != nil {
			// Detach BEFORE the group-delivery record: replay must see
			// this member's cursor frozen below the file.
			if derr := e.store.RecordGroupDetach(ch.name, sub, now); derr != nil {
				recordOK = false
				e.receiptWriteFailed(sub, ch.feed, ch.name, j.FileID, derr)
			}
			delete(ch.attached, sub)
			ch.detaches++
			if m := e.opts.Metrics; m != nil {
				m.ChannelDetaches.With(ch.name).Inc()
			}
			e.bumpStats(sub, false, 0)
			e.emit(Event{Kind: EvChannelDetached, Subscriber: sub, Feed: ch.feed, Name: ch.name, FileID: j.FileID, Err: err})
			failures = append(failures, memberFailure{sub: sub, err: err})
			continue
		}
		delivered = append(delivered, sub)
	}
	if !recordOK {
		// A detach record failed to commit: appending the group-delivery
		// record now could credit that member with a file it missed.
		// Leave the file out of the log — channel backfill re-fans it
		// (duplicates to members that got bytes: the safe direction).
		return failures
	}
	if err := e.store.RecordGroupDelivery(ch.name, j.FileID, now); err != nil {
		e.receiptWriteFailed(chanKey(ch.name), ch.feed, ch.name, j.FileID, err)
		return failures
	}
	ch.files++
	ch.fanout += int64(len(delivered))
	e.setMembersGaugeLocked(ch)
	e.bumpStatsBatch(delivered, meta.Size)
	if m := e.opts.Metrics; m != nil {
		m.ChannelFiles.With(ch.name).Inc()
		m.ChannelFanout.With(ch.name).Add(int64(len(delivered)))
		if !j.Backfill {
			m.Propagation.Observe(e.clk.Now().Sub(meta.Arrived).Seconds())
		}
	}
	e.emit(Event{Kind: EvDelivered, Subscriber: chanKey(ch.name), Feed: ch.feed, Name: j.Path, FileID: j.FileID, Count: len(delivered)})
	for _, sub := range delivered {
		if s := e.subscriber(sub); s != nil {
			e.trig.FileDelivered(sub, ch.feed, s.Trigger, batch.File{
				Name:     destName(s, j.Path),
				FileID:   j.FileID,
				DataTime: meta.DataTime,
				Arrived:  meta.Arrived,
			})
		}
	}
	return failures
}

// receiptWriteFailed accounts a failed receipt commit: distinct
// counter + the event the server alarms on.
func (e *Engine) receiptWriteFailed(sub, feed, name string, fileID uint64, err error) {
	if m := e.opts.Metrics; m != nil {
		m.ReceiptWriteFailures.Inc()
	}
	e.emit(Event{Kind: EvReceiptWriteFailed, Subscriber: sub, Feed: feed, Name: name, FileID: fileID, Err: err})
}

// transferTo pushes one file to one subscriber under its per-transfer
// deadline, honouring the notify method.
func (e *Engine) transferTo(s *config.Subscriber, f transport.File) error {
	st := e.stateFor(s.Name)
	return backoff.Do(e.clk, st.pol.TransferDeadline, func() error {
		if s.Method == config.MethodNotify {
			nf := f
			nf.Data = nil
			return e.trans.Notify(s.Name, nf)
		}
		return e.trans.Deliver(s.Name, f)
	})
}

// channelMemberFailed feeds a member's fan-out failure into its
// circuit breaker and schedules recovery: an open breaker hands the
// member to the offline prober (whose success re-runs QueueBackfill →
// catch-up); otherwise catch-up itself retries with backoff.
func (e *Engine) channelMemberFailed(ch *channel, sub string, err error) {
	if backoff.Classify(err) == backoff.ClassPermanent {
		// Retrying cannot help; the member stays detached with its
		// cursor holding its place until config changes or an operator
		// forgets it.
		return
	}
	st := e.stateFor(sub)
	now := e.clk.Now()
	opened := st.breaker.Failure(now, err)
	if opened || st.breaker.State() != backoff.Closed {
		e.markOffline(sub, err, opened, st)
		return
	}
	e.startCatchup(ch, sub)
}

// markOffline flags a subscriber offline, drops its queued jobs, and
// starts the recovery prober (shared by the per-subscriber and channel
// failure paths).
func (e *Engine) markOffline(sub string, err error, opened bool, st *subState) {
	e.sched.DropSubscriber(sub)
	e.mu.Lock()
	already := e.offline[sub]
	e.offline[sub] = true
	var startProbe bool
	if !e.probing[sub] {
		e.probing[sub] = true
		startProbe = true
	}
	e.mu.Unlock()
	if opened {
		e.emit(Event{Kind: EvCircuitOpen, Subscriber: sub, Delay: st.breaker.ProbeIn(e.clk.Now()), Err: err})
	}
	if !already {
		e.emit(Event{Kind: EvSubscriberOffline, Subscriber: sub, Err: err})
	}
	if startProbe {
		e.wg.Add(1)
		go e.probe(sub)
	}
}

// bumpStatsBatch credits one delivered file to many members under a
// single lock hold. Unlike bumpStats it does NOT mirror into
// per-subscriber metric series — at channel scale (100k members) that
// would explode the registry; the bistro_channel_* series carry the
// aggregate instead.
func (e *Engine) bumpStatsBatch(subs []string, bytes int64) {
	if len(subs) == 0 {
		return
	}
	e.mu.Lock()
	for _, sub := range subs {
		st := e.stats[sub]
		if st == nil {
			st = &SubscriberStats{}
			e.stats[sub] = st
		}
		st.Delivered++
		st.Bytes += bytes
	}
	e.mu.Unlock()
}

// startCatchup launches (once) a catch-up goroutine walking sub from
// its cursor to the channel frontier.
func (e *Engine) startCatchup(ch *channel, sub string) {
	ch.mu.Lock()
	if ch.attached[sub] || ch.catchup[sub] {
		ch.mu.Unlock()
		return
	}
	ch.catchup[sub] = true
	ch.mu.Unlock()
	e.wg.Add(1)
	go e.catchupLoop(ch, sub)
}

// catchupLoop delivers log[cursor:frontier) to one member, one file at
// a time with a durable cursor advance after each, then attaches the
// member under the fan-out barrier once it holds the full prefix.
func (e *Engine) catchupLoop(ch *channel, sub string) {
	defer e.wg.Done()
	defer func() {
		ch.mu.Lock()
		delete(ch.catchup, sub)
		ch.mu.Unlock()
	}()
	for {
		select {
		case <-e.stopCh:
			return
		default:
		}
		st, known := e.store.GroupMemberState(ch.name, sub)
		if !known {
			return // forgotten
		}
		cursor := st.Cursor
		ids, start := e.store.GroupEntries(ch.name, cursor)
		if start > cursor {
			// The prefix was compacted away (possible only after the
			// member was forgotten and re-registered, or operator
			// surgery); the bytes are gone — resume at the trimmed base.
			cursor = start
		}
		if len(ids) == 0 {
			// At the frontier: attach under the fan-out barrier so no
			// file can be half-delivered while the cursor snaps forward.
			ch.mu.Lock()
			if e.store.GroupFrontier(ch.name) == cursor {
				if err := e.store.RecordGroupAttach(ch.name, sub, e.clk.Now()); err != nil {
					ch.mu.Unlock()
					e.receiptWriteFailed(sub, ch.feed, ch.name, 0, err)
					return
				}
				ch.attached[sub] = true
				e.setMembersGaugeLocked(ch)
				ch.mu.Unlock()
				e.emit(Event{Kind: EvChannelAttached, Subscriber: sub, Feed: ch.feed, Name: ch.name})
				return
			}
			ch.mu.Unlock()
			continue // a fan-out landed meanwhile; re-read the log
		}
		for _, id := range ids {
			ok, fatal := e.catchupDeliver(ch, sub, id)
			if fatal {
				return
			}
			if ok {
				if m := e.opts.Metrics; m != nil {
					m.ChannelCatchup.With(ch.name).Inc()
				}
			}
			cursor++
			if err := e.store.RecordGroupCursor(ch.name, sub, cursor, e.clk.Now()); err != nil {
				e.receiptWriteFailed(sub, ch.feed, ch.name, id, err)
				return
			}
		}
	}
}

// catchupDeliver pushes one logged file to a catching-up member,
// retrying transient failures with backoff until the member's breaker
// opens (then the offline prober owns recovery and fatal=true stops
// the loop). ok=false with fatal=false means the payload is gone
// (quarantined, or expired with no archive) and the position is
// skipped.
func (e *Engine) catchupDeliver(ch *channel, sub string, id uint64) (ok, fatal bool) {
	s := e.subscriber(sub)
	if s == nil {
		return false, true
	}
	meta, have := e.store.File(id)
	if !have || e.store.Quarantined(id) {
		e.emit(Event{Kind: EvDeliveryFailed, Subscriber: sub, Feed: ch.feed, Name: ch.name, FileID: id, Err: ErrReceiptMissing})
		return false, false
	}
	data, err := e.read(meta.StagedPath, meta.Size, nil)
	if err != nil {
		// Expired mid-lag with no archive copy: the bytes no longer
		// exist anywhere; skipping is the only way the member (and
		// compaction behind it) can make progress.
		e.emit(Event{Kind: EvDeliveryFailed, Subscriber: sub, Feed: ch.feed, Name: meta.StagedPath, FileID: id, Err: err})
		return false, false
	}
	f := transport.File{
		FileID: id,
		Feed:   ch.feed,
		Name:   destName(s, meta.StagedPath),
		Data:   data,
		CRC:    meta.Checksum,
		Size:   meta.Size,
	}
	for {
		err := e.transferTo(s, f)
		if err == nil {
			e.bumpStats(sub, true, meta.Size)
			e.markAlive(sub)
			return true, false
		}
		e.bumpStats(sub, false, 0)
		e.emit(Event{Kind: EvDeliveryFailed, Subscriber: sub, Feed: ch.feed, Name: meta.StagedPath, FileID: id, Err: err})
		if backoff.Classify(err) == backoff.ClassPermanent {
			return false, false
		}
		st := e.stateFor(sub)
		opened := st.breaker.Failure(e.clk.Now(), err)
		if opened || st.breaker.State() != backoff.Closed {
			e.markOffline(sub, err, opened, st)
			return false, true
		}
		delay := st.retry.Next()
		if m := e.opts.Metrics; m != nil {
			m.Retries.Inc()
		}
		e.emit(Event{Kind: EvRetryScheduled, Subscriber: sub, Feed: ch.feed, Name: meta.StagedPath, FileID: id, Delay: delay, Attempt: st.retry.Attempt(), Err: err})
		t := e.clk.NewTimer(delay)
		select {
		case <-e.stopCh:
			t.Stop()
			return false, true
		case <-t.C():
		}
	}
}

// ChannelStats is a monitoring snapshot of one delivery channel.
type ChannelStats struct {
	// Name and Feed identify the channel.
	Name string
	Feed string
	// Members counts registered members; Attached of those currently
	// ride the fan-out; CatchingUp have live catch-up goroutines.
	Members    int
	Attached   int
	CatchingUp int
	// Frontier is the group log length; MinCursor the furthest-behind
	// member cursor (equal to Frontier when nobody lags).
	Frontier  int
	MinCursor int
	// Files / Fanout / Detaches count files fanned out, member
	// transfers made, and mid-fan-out drops.
	Files    int64
	Fanout   int64
	Detaches int64
}

// ChannelStats returns per-channel monitoring snapshots, sorted by
// name.
func (e *Engine) ChannelStats() []ChannelStats {
	e.mu.Lock()
	chans := make([]*channel, 0, len(e.channels))
	for _, ch := range e.channels {
		chans = append(chans, ch)
	}
	e.mu.Unlock()
	sort.Slice(chans, func(i, j int) bool { return chans[i].name < chans[j].name })
	out := make([]ChannelStats, 0, len(chans))
	for _, ch := range chans {
		st := ChannelStats{Name: ch.name, Feed: ch.feed}
		members := e.store.GroupMembers(ch.name)
		st.Members = len(members)
		st.Frontier = e.store.GroupFrontier(ch.name)
		st.MinCursor = st.Frontier
		for _, m := range members {
			if m.Cursor < st.MinCursor {
				st.MinCursor = m.Cursor
			}
		}
		ch.mu.Lock()
		st.Attached = len(ch.attached)
		st.CatchingUp = len(ch.catchup)
		st.Files = ch.files
		st.Fanout = ch.fanout
		st.Detaches = ch.detaches
		ch.mu.Unlock()
		out = append(out, st)
	}
	return out
}
