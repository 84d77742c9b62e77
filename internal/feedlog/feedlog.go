// Package feedlog is Bistro's logging and monitoring subsystem
// (SIGMOD'11 §3.2): since most managed feeds are not under the
// server's control, Bistro logs extensively, tracks per-feed progress,
// detects incomplete or stalled feeds against their expected arrival
// cadence, and raises alarms it cannot correct itself.
package feedlog

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"bistro/internal/clock"
)

// FeedStats is the monitored state of one feed.
type FeedStats struct {
	// Files and Bytes count classified arrivals.
	Files int64
	Bytes int64
	// LastArrival is the wall-clock time of the newest file.
	LastArrival time.Time
	// LastDataTime is the newest filename-encoded timestamp.
	LastDataTime time.Time
	// Delivered counts successful deliveries across subscribers.
	Delivered int64
	// Failures counts delivery failures.
	Failures int64
	// ExpectedPeriod is the configured or analyzer-inferred cadence
	// (0 = unknown, exempt from staleness alarms).
	ExpectedPeriod time.Duration
	// ExpectedSources is the number of files expected per period.
	ExpectedSources int
}

// Alarm is a condition the server cannot correct by itself.
type Alarm struct {
	Feed    string
	Message string
	At      time.Time
}

// Logger tracks feed progress and writes a line-oriented activity log.
// All methods are safe for concurrent use.
type Logger struct {
	clk clock.Clock

	mu        sync.Mutex
	w         io.Writer
	feeds     map[string]*FeedStats
	intervals map[string]map[time.Time]int
	unmatched int64
	alarms    []Alarm
	// OnAlarm, when set, receives alarms as they are raised.
	OnAlarm func(Alarm)
}

// New creates a Logger writing its activity log to w. A nil w or
// io.Discard writes no log: the lines are then not formatted at all.
func New(w io.Writer, clk clock.Clock) *Logger {
	if w == io.Discard {
		w = nil
	}
	return &Logger{
		clk:       clk,
		w:         w,
		feeds:     make(map[string]*FeedStats),
		intervals: make(map[string]map[time.Time]int),
	}
}

// Logf writes one categorized log line.
func (l *Logger) Logf(category, format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.logfLocked(category, format, args...)
}

func (l *Logger) logfLocked(category, format string, args ...any) {
	if l.w == nil {
		return
	}
	fmt.Fprintf(l.w, "%s [%s] %s\n",
		l.clk.Now().UTC().Format(time.RFC3339), category, fmt.Sprintf(format, args...))
}

// stats returns (creating) the entry for feed. Caller holds l.mu.
func (l *Logger) stats(feed string) *FeedStats {
	s, ok := l.feeds[feed]
	if !ok {
		s = &FeedStats{}
		l.feeds[feed] = s
	}
	return s
}

// FileClassified records one classified arrival.
func (l *Logger) FileClassified(feed, name string, size int64, dataTime time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.stats(feed)
	s.Files++
	s.Bytes += size
	now := l.clk.Now()
	if now.After(s.LastArrival) {
		s.LastArrival = now
	}
	if dataTime.After(s.LastDataTime) {
		s.LastDataTime = dataTime
	}
	// Interval completeness accounting (needs a configured cadence and
	// a filename-encoded timestamp).
	if s.ExpectedPeriod > 0 && !dataTime.IsZero() {
		bucket := dataTime.Truncate(s.ExpectedPeriod)
		m := l.intervals[feed]
		if m == nil {
			m = make(map[time.Time]int)
			l.intervals[feed] = m
		}
		m[bucket]++
	}
	if l.w != nil { // boxing the arguments would allocate per file
		l.logfLocked("classify", "%s -> %s (%d bytes)", name, feed, size)
	}
}

// FileUnmatched records a file no feed claimed.
func (l *Logger) FileUnmatched(name string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.unmatched++
	l.logfLocked("unmatched", "%s", name)
}

// Delivered records one successful delivery.
func (l *Logger) Delivered(feed, sub, name string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stats(feed).Delivered++
	if l.w != nil {
		l.logfLocked("deliver", "%s -> %s (%s)", name, sub, feed)
	}
}

// DeliveryFailed records one failed delivery attempt.
func (l *Logger) DeliveryFailed(feed, sub, name string, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stats(feed).Failures++
	l.logfLocked("deliver-fail", "%s -> %s: %v", name, sub, err)
}

// SetExpectation configures a feed's expected cadence so CheckProgress
// can detect stalls and incomplete intervals.
func (l *Logger) SetExpectation(feed string, period time.Duration, sources int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.stats(feed)
	s.ExpectedPeriod = period
	s.ExpectedSources = sources
}

// CheckProgress raises an alarm for every feed with an expected period
// whose newest arrival is older than lateFactor periods (default 2
// when lateFactor <= 0). It returns the alarms raised by this check.
func (l *Logger) CheckProgress(lateFactor float64) []Alarm {
	if lateFactor <= 0 {
		lateFactor = 2
	}
	l.mu.Lock()
	now := l.clk.Now()
	var raised []Alarm
	names := make([]string, 0, len(l.feeds))
	for name := range l.feeds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := l.feeds[name]
		if s.ExpectedPeriod <= 0 || s.LastArrival.IsZero() {
			continue
		}
		lateBy := now.Sub(s.LastArrival)
		if lateBy > time.Duration(lateFactor*float64(s.ExpectedPeriod)) {
			a := Alarm{
				Feed:    name,
				Message: fmt.Sprintf("no data for %s (expected every %s)", lateBy.Round(time.Second), s.ExpectedPeriod),
				At:      now,
			}
			raised = append(raised, a)
			l.alarms = append(l.alarms, a)
			l.logfLocked("alarm", "%s: %s", a.Feed, a.Message)
		}
	}
	cb := l.OnAlarm
	l.mu.Unlock()
	if cb != nil {
		for _, a := range raised {
			cb(a)
		}
	}
	return raised
}

// CheckCompleteness raises an alarm for every closed measurement
// interval that received fewer files than the feed's expected source
// count (§3.2: detect incomplete data). An interval is closed once
// now is past its end plus grace. Checked intervals are pruned, so
// each incomplete interval alarms exactly once.
func (l *Logger) CheckCompleteness(grace time.Duration) []Alarm {
	l.mu.Lock()
	now := l.clk.Now()
	var raised []Alarm
	feedNames := make([]string, 0, len(l.intervals))
	for name := range l.intervals {
		feedNames = append(feedNames, name)
	}
	sort.Strings(feedNames)
	for _, name := range feedNames {
		s := l.feeds[name]
		if s == nil || s.ExpectedPeriod <= 0 || s.ExpectedSources <= 0 {
			continue
		}
		m := l.intervals[name]
		buckets := make([]time.Time, 0, len(m))
		for b := range m {
			buckets = append(buckets, b)
		}
		sort.Slice(buckets, func(i, j int) bool { return buckets[i].Before(buckets[j]) })
		for _, b := range buckets {
			if now.Before(b.Add(s.ExpectedPeriod).Add(grace)) {
				continue // interval still open
			}
			if got := m[b]; got < s.ExpectedSources {
				a := Alarm{
					Feed: name,
					Message: fmt.Sprintf("interval %s incomplete: %d of %d files",
						b.UTC().Format(time.RFC3339), got, s.ExpectedSources),
					At: now,
				}
				raised = append(raised, a)
				l.alarms = append(l.alarms, a)
				l.logfLocked("alarm", "%s: %s", a.Feed, a.Message)
			}
			delete(m, b)
		}
	}
	cb := l.OnAlarm
	l.mu.Unlock()
	if cb != nil {
		for _, a := range raised {
			cb(a)
		}
	}
	return raised
}

// Raise records an ad-hoc alarm (used by the analyzer loop for
// false-negative findings and other conditions detected outside the
// progress checks).
func (l *Logger) Raise(feed, message string) Alarm {
	l.mu.Lock()
	a := Alarm{Feed: feed, Message: message, At: l.clk.Now()}
	l.alarms = append(l.alarms, a)
	l.logfLocked("alarm", "%s: %s", feed, message)
	cb := l.OnAlarm
	l.mu.Unlock()
	if cb != nil {
		cb(a)
	}
	return a
}

// Stats returns a copy of a feed's monitored state.
func (l *Logger) Stats(feed string) (FeedStats, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s, ok := l.feeds[feed]
	if !ok {
		return FeedStats{}, false
	}
	return *s, true
}

// AllStats returns a copy of every feed's monitored state, keyed by
// feed path (status endpoint, metric scrapes).
func (l *Logger) AllStats() map[string]FeedStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]FeedStats, len(l.feeds))
	for name, s := range l.feeds {
		out[name] = *s
	}
	return out
}

// Unmatched returns the count of files no feed claimed.
func (l *Logger) Unmatched() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.unmatched
}

// Alarms returns all alarms raised so far.
func (l *Logger) Alarms() []Alarm {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Alarm, len(l.alarms))
	copy(out, l.alarms)
	return out
}

// Summary renders a monitoring snapshot sorted by feed name.
func (l *Logger) Summary() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	names := make([]string, 0, len(l.feeds))
	for name := range l.feeds {
		names = append(names, name)
	}
	sort.Strings(names)
	var b []byte
	for _, name := range names {
		s := l.feeds[name]
		b = fmt.Appendf(b, "%s: files=%d bytes=%d delivered=%d failures=%d\n",
			name, s.Files, s.Bytes, s.Delivered, s.Failures)
	}
	b = fmt.Appendf(b, "unmatched: %d\n", l.unmatched)
	return string(b)
}
