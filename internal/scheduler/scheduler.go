package scheduler

import (
	"container/heap"
	"fmt"
	"sync"
	"time"

	"bistro/internal/clock"
)

// BackfillMode selects how historical catch-up work shares the
// scheduler with real-time delivery (§4.3).
type BackfillMode int

// Backfill modes.
const (
	// BackfillConcurrent keeps backfill on a separate per-partition
	// queue served by reserved workers, so real-time delivery is
	// unaffected while history streams in parallel (Bistro's choice).
	BackfillConcurrent BackfillMode = iota
	// BackfillInOrder merges backfill into the main queue; under EDF
	// the old deadlines sort first, so the subscriber receives files
	// in original order at the cost of real-time tardiness (the
	// strategy the paper rejects; kept for experiment E5).
	BackfillInOrder
)

func (m BackfillMode) String() string {
	if m == BackfillInOrder {
		return "in-order"
	}
	return "concurrent"
}

// PartitionConfig sizes one responsiveness level.
type PartitionConfig struct {
	// Name labels the partition ("interactive", "bulk", ...).
	Name string
	// Workers is the fixed worker (cpu-core) allocation.
	Workers int
	// BackfillWorkers of those are reserved for the backfill queue
	// under BackfillConcurrent (0 = backfill drains only when the
	// real-time queue is empty).
	BackfillWorkers int
	// Policy orders the partition's real-time queue.
	Policy PolicyKind
	// MaxMeanService is the responsiveness band for dynamic migration:
	// a subscriber belongs in the first partition whose bound its
	// observed mean service time fits (0 = unbounded, accepts anyone).
	// Ignored unless Config.Migration.Enabled.
	MaxMeanService time.Duration
}

// Config configures a Scheduler.
type Config struct {
	// Partitions in decreasing responsiveness order. Must be non-empty.
	Partitions []PartitionConfig
	// Backfill selects the backfill strategy.
	Backfill BackfillMode
	// GroupSameFile enables the locality heuristic: popping a job also
	// claims every queued job for the same file in that partition, so
	// one staged read serves all of them concurrently.
	GroupSameFile bool
	// MaxInFlightPerSubscriber caps concurrent transfers to one
	// subscriber so a single backlogged destination cannot monopolize
	// a partition's workers. 0 means 1.
	MaxInFlightPerSubscriber int
	// Migration configures observation-driven dynamic partition
	// reassignment (the paper's §4.3 future-work extension).
	Migration MigrationConfig
	// Clock drives delayed-requeue release timers (RequeueAfter).
	// Default: the wall clock.
	Clock clock.Clock
}

// Scheduler assigns delivery jobs to partitioned worker pools.
//
// Usage: assign subscribers to partitions (AssignSubscriber), Submit
// jobs, and run workers that loop on Next/Done. Next blocks until a
// job group is available for the given partition lane.
type Scheduler struct {
	cfg Config
	clk clock.Clock

	mu       sync.Mutex
	cond     *sync.Cond
	parts    []*partition
	subPart  map[string]int
	inflight map[string]int
	seq      uint64
	closed   bool

	// Delayed-release timer bookkeeping: timerAt is the armed timer's
	// fire time (zero = none armed); timerGen invalidates stale timer
	// goroutines.
	timerAt  time.Time
	timerGen uint64

	migr *migrator
}

type partition struct {
	cfg      PartitionConfig
	realtime *queue
	backfill *queue
	// delayed holds requeued jobs whose Release (not-before retry
	// time) is still in the future, ordered by Release.
	delayed delayHeap
}

// New builds a scheduler. It validates the partition layout.
func New(cfg Config) (*Scheduler, error) {
	if len(cfg.Partitions) == 0 {
		return nil, fmt.Errorf("scheduler: no partitions configured")
	}
	if cfg.MaxInFlightPerSubscriber == 0 {
		cfg.MaxInFlightPerSubscriber = 1
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.NewReal()
	}
	s := &Scheduler{
		cfg:      cfg,
		clk:      cfg.Clock,
		subPart:  make(map[string]int),
		inflight: make(map[string]int),
	}
	s.cond = sync.NewCond(&s.mu)
	s.migr = newMigrator(cfg.Migration)
	for _, pc := range cfg.Partitions {
		if pc.Workers <= 0 {
			return nil, fmt.Errorf("scheduler: partition %q needs workers", pc.Name)
		}
		if pc.BackfillWorkers >= pc.Workers {
			return nil, fmt.Errorf("scheduler: partition %q: backfill workers must leave real-time capacity", pc.Name)
		}
		s.parts = append(s.parts, &partition{
			cfg:      pc,
			realtime: newQueue(pc.Policy),
			backfill: newQueue(pc.Policy),
		})
	}
	return s, nil
}

// AssignSubscriber pins a subscriber to a partition index. Unassigned
// subscribers default to the last (least responsive) partition.
func (s *Scheduler) AssignSubscriber(sub string, part int) error {
	if part < 0 || part >= len(s.parts) {
		return fmt.Errorf("scheduler: partition %d out of range", part)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.subPart[sub] = part
	return nil
}

// PartitionOf reports a subscriber's partition index.
func (s *Scheduler) PartitionOf(sub string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.partitionOfLocked(sub)
}

func (s *Scheduler) partitionOfLocked(sub string) int {
	if p, ok := s.subPart[sub]; ok {
		return p
	}
	return len(s.parts) - 1
}

// Submit enqueues a job. The scheduler assigns its sequence number.
func (s *Scheduler) Submit(j *Job) {
	s.mu.Lock()
	j.Seq = s.seq
	s.seq++
	p := s.partitionForLocked(j)
	if j.Backfill && s.cfg.Backfill == BackfillConcurrent {
		p.backfill.push(j)
	} else {
		p.realtime.push(j)
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// SubmitTo enqueues a job pinned to a specific partition, bypassing
// subscriber routing. Replay sessions use this to stream archived
// history through their dedicated partition so catch-up can never
// contend with real-time delivery for workers.
func (s *Scheduler) SubmitTo(part int, j *Job) error {
	if part < 0 || part >= len(s.parts) {
		return fmt.Errorf("scheduler: partition %d out of range", part)
	}
	j.pinned = part + 1
	s.Submit(j)
	return nil
}

// partitionForLocked routes a job: pinned jobs to their fixed
// partition, everything else by subscriber assignment.
func (s *Scheduler) partitionForLocked(j *Job) *partition {
	if j.pinned > 0 && j.pinned <= len(s.parts) {
		return s.parts[j.pinned-1]
	}
	return s.parts[s.partitionOfLocked(j.Subscriber)]
}

// Lane identifies which queue a worker serves.
type Lane int

// Lanes.
const (
	LaneRealtime Lane = iota
	LaneBackfill
)

// Next blocks until a job group is available in the given partition
// and lane, claiming in-flight slots for its subscribers. It returns
// nil when the scheduler is closed. Real-time workers fall back to the
// backfill queue when idle; dedicated backfill workers serve only
// backfill so catch-up always makes progress without consuming
// real-time capacity.
//
// The group is claimed into buf's array: a worker that passes the
// group it is done with (Next(part, lane, prev[:0]...)) claims without
// allocating. Called without buf, Next allocates the group.
func (s *Scheduler) Next(part int, lane Lane, buf ...*Job) []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.closed {
		if jobs := s.claimLaneLocked(part, lane, buf); jobs != nil {
			return jobs
		}
		s.armTimerLocked()
		s.cond.Wait()
	}
	return nil
}

// TryNext is Next without blocking; nil when nothing is claimable.
func (s *Scheduler) TryNext(part int, lane Lane) []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	return s.claimLaneLocked(part, lane, nil)
}

// claimLaneLocked releases the delayed jobs that are due and claims a
// group for lane of partition part into buf[:0]; nil when there is none.
func (s *Scheduler) claimLaneLocked(part int, lane Lane, buf []*Job) []*Job {
	s.promoteDueLocked()
	p := s.parts[part]
	if lane == LaneRealtime {
		if jobs := s.claimLocked(p.realtime, buf); jobs != nil {
			return jobs
		}
		// Idle real-time worker helps backfill.
	}
	return s.claimLocked(p.backfill, buf)
}

// promoteDueLocked moves delayed jobs whose release time has arrived
// into their partition's lane queues.
func (s *Scheduler) promoteDueLocked() {
	now := s.clk.Now()
	for _, p := range s.parts {
		for p.delayed.Len() > 0 && !p.delayed[0].Release.After(now) {
			j := heap.Pop(&p.delayed).(*Job)
			if j.Backfill && s.cfg.Backfill == BackfillConcurrent {
				p.backfill.push(j)
			} else {
				p.realtime.push(j)
			}
		}
	}
}

// armTimerLocked makes sure a wake-up fires at the earliest pending
// release time, so workers blocked in Next pick delayed jobs up the
// moment they become runnable. Stale timers are tolerated: they fire,
// find their generation superseded (or nothing due yet), and only cost
// a broadcast.
func (s *Scheduler) armTimerLocked() {
	var earliest time.Time
	for _, p := range s.parts {
		if p.delayed.Len() == 0 {
			continue
		}
		if at := p.delayed[0].Release; earliest.IsZero() || at.Before(earliest) {
			earliest = at
		}
	}
	if earliest.IsZero() {
		return
	}
	if !s.timerAt.IsZero() && !s.timerAt.After(earliest) {
		return // an armed timer already covers this release
	}
	s.timerGen++
	gen := s.timerGen
	s.timerAt = earliest
	d := earliest.Sub(s.clk.Now())
	if d < 0 {
		d = 0
	}
	t := s.clk.NewTimer(d)
	go func() {
		<-t.C()
		s.mu.Lock()
		if s.timerGen == gen {
			s.timerAt = time.Time{}
		}
		s.mu.Unlock()
		s.cond.Broadcast()
	}()
}

// RequeueAfter returns a claimed job to its partition with a
// not-before release time (transfer failed; the backoff policy decides
// when it is worth trying again), releasing its in-flight slot. Before
// notBefore the job is invisible to Next/TryNext, so a fast-failing
// subscriber cannot spin a worker.
func (s *Scheduler) RequeueAfter(j *Job, notBefore time.Time) {
	s.mu.Lock()
	j.Release = notBefore
	p := s.partitionForLocked(j)
	if notBefore.After(s.clk.Now()) {
		heap.Push(&p.delayed, j)
		s.armTimerLocked()
	} else if j.Backfill && s.cfg.Backfill == BackfillConcurrent {
		p.backfill.push(j)
	} else {
		p.realtime.push(j)
	}
	if n := s.inflight[j.Subscriber]; n > 1 {
		s.inflight[j.Subscriber] = n - 1
	} else {
		delete(s.inflight, j.Subscriber)
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// claimLocked pops the best eligible job (subscriber under its
// in-flight cap) and, with GroupSameFile, every other queued job for
// the same file whose subscriber also has capacity, into buf[:0].
func (s *Scheduler) claimLocked(q *queue, buf []*Job) []*Job {
	eligible := func(j *Job) bool {
		return s.inflight[j.Subscriber] < s.cfg.MaxInFlightPerSubscriber
	}
	j := q.popWhere(eligible)
	if j == nil {
		return nil
	}
	jobs := append(buf[:0], j)
	s.inflight[j.Subscriber]++
	if s.cfg.GroupSameFile {
		for _, extra := range q.takeFile(j.FileID, eligible) {
			jobs = append(jobs, extra)
			s.inflight[extra.Subscriber]++
		}
	}
	return jobs
}

// Done releases the in-flight slot a claimed job held. Call it once
// per job returned by Next/TryNext, whether the transfer succeeded or
// failed.
func (s *Scheduler) Done(j *Job) {
	s.mu.Lock()
	if n := s.inflight[j.Subscriber]; n > 1 {
		s.inflight[j.Subscriber] = n - 1
	} else {
		delete(s.inflight, j.Subscriber)
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Requeue returns a claimed job to its queue (transfer failed, will be
// retried) and releases its slot.
func (s *Scheduler) Requeue(j *Job) {
	s.mu.Lock()
	p := s.partitionForLocked(j)
	if j.Backfill && s.cfg.Backfill == BackfillConcurrent {
		p.backfill.push(j)
	} else {
		p.realtime.push(j)
	}
	if n := s.inflight[j.Subscriber]; n > 1 {
		s.inflight[j.Subscriber] = n - 1
	} else {
		delete(s.inflight, j.Subscriber)
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// DropSubscriber removes every queued job for a subscriber — delayed
// retries included (it went offline; its queue will be recomputed from
// receipts on reconnect). Returns the number of jobs dropped.
func (s *Scheduler) DropSubscriber(sub string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	dropped := 0
	for _, p := range s.parts {
		for _, q := range []*queue{p.realtime, p.backfill} {
			kept := q.jobs[:0:0]
			for _, j := range q.jobs {
				if j.Subscriber == sub {
					dropped++
				} else {
					kept = append(kept, j)
				}
			}
			q.jobs = kept
			for i := range q.jobs {
				q.jobs[i].index = i
			}
			// Restore heap order after filtering.
			rebuildHeap(q)
		}
		keptD := p.delayed[:0:0]
		for _, j := range p.delayed {
			if j.Subscriber == sub {
				dropped++
			} else {
				keptD = append(keptD, j)
			}
		}
		p.delayed = keptD
		heap.Init(&p.delayed)
	}
	return dropped
}

// DelayedLen reports jobs parked in a partition's delayed-retry heap.
func (s *Scheduler) DelayedLen(part int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.parts[part].delayed.Len()
}

// InflightTotal reports claimed jobs currently held by workers across
// all partitions (monitoring).
func (s *Scheduler) InflightTotal() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0
	for _, n := range s.inflight {
		total += n
	}
	return total
}

// delayHeap orders delayed jobs by release time (ties by sequence).
type delayHeap []*Job

func (h delayHeap) Len() int { return len(h) }
func (h delayHeap) Less(i, j int) bool {
	if !h[i].Release.Equal(h[j].Release) {
		return h[i].Release.Before(h[j].Release)
	}
	return h[i].Seq < h[j].Seq
}
func (h delayHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *delayHeap) Push(x any)   { *h = append(*h, x.(*Job)) }
func (h *delayHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return j
}

// rebuildHeap restores heap order after bulk surgery on q.jobs.
func rebuildHeap(q *queue) { heap.Init(q) }

// QueueLen reports queued (unclaimed) jobs in a partition lane.
func (s *Scheduler) QueueLen(part int, lane Lane) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.parts[part]
	if lane == LaneBackfill {
		return p.backfill.Len()
	}
	return p.realtime.Len()
}

// Partitions returns the partition configurations.
func (s *Scheduler) Partitions() []PartitionConfig {
	out := make([]PartitionConfig, len(s.parts))
	for i, p := range s.parts {
		out[i] = p.cfg
	}
	return out
}

// Close releases all blocked workers; Next returns nil afterwards.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Tardiness is the scheduling quality measure the paper cares about:
// how late past its deadline a delivery completed (0 when on time).
func Tardiness(j *Job, finished time.Time) time.Duration {
	if finished.Before(j.Deadline) {
		return 0
	}
	return finished.Sub(j.Deadline)
}
