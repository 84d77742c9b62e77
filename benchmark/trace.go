//go:build linux

package benchmark

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span is one traced interval. Spans of one deposited file share its
// FileID (the file's index in the seeded sequence); Parent is the ID of
// the span that caused this one (0 for a root). A group-commit flush
// shared by several files appears once per file with the same Shared
// id, so every file's tree is complete.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	FileID int    `json:"file_id"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the run's origin.
	Start  int64 `json:"start"`
	End    int64 `json:"end"`
	Shared int   `json:"shared,omitempty"`
}

// selfTime is a span's duration minus the part of it its children
// cover (overlapping children are not counted twice; parts of a child
// outside the parent do not count).
func selfTime(parent Span, children []Span) int64 {
	type iv struct{ s, e int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		s, e := max(c.Start, parent.Start), min(c.End, parent.End)
		if e > s {
			ivs = append(ivs, iv{s, e})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })
	var covered, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.e <= end {
			continue
		}
		covered += v.e - max(v.s, end)
		end = v.e
	}
	return parent.End - parent.Start - covered
}

// tracer assembles per-file span trees after the load phases from the
// timestamps the harness and the FS wrapper recorded.
type tracer struct {
	origin time.Time
	spans  []Span
	nextID int
}

func (t *tracer) add(parent, fileID int, name string, start, end time.Time, shared int) int {
	if end.Before(start) {
		// An ack can reach the source after the consumer already holds
		// the file; the stage then has no extent.
		end = start
	}
	t.nextID++
	t.spans = append(t.spans, Span{
		ID: t.nextID, Parent: parent, FileID: fileID, Name: name,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds(),
		Shared: shared,
	})
	return t.nextID
}

// stageSelfTimes sums self time per span name over every non-root
// span, and the roots' total duration: the stage table and its base.
func stageSelfTimes(spans []Span) (byStage map[string]int64, rootTotal int64) {
	children := make(map[int][]Span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	byStage = make(map[string]int64)
	for _, s := range spans {
		if s.Parent == 0 {
			rootTotal += s.End - s.Start
			continue
		}
		byStage[s.Name] += selfTime(s, children[s.ID])
	}
	return byStage, rootTotal
}

// stageTable is the mean self time per file of each stage, in ms: the
// table that should add up to the mean end-to-end propagation.
func stageTable(spans []Span) map[string]float64 {
	byStage, _ := stageSelfTimes(spans)
	files := 0
	for _, s := range spans {
		if s.Parent == 0 {
			files++
		}
	}
	out := make(map[string]float64, len(byStage))
	for name, ns := range byStage {
		out[name] = float64(ns) / 1e6 / float64(max(files, 1))
	}
	return out
}

// writeTrace dumps the spans as <path> (a JSON array).
func writeTrace(path string, spans []Span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
