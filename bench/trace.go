package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
)

// span is one timed interval at a layer boundary. Spans of one request
// share req; parent is the id of the span that caused this one, 0 for
// a request's root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// trace holds a run's spans in memory until the run ends.
type trace struct {
	spans []span
}

func (t *trace) add(parent, req int, name string, start, end int64) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return id
}

// nest adds a span measured in another replay of the same request
// under parent, re-based to begin where cursor points inside the
// parent's interval, and returns its id and the advanced cursor. The
// public API offers no way to observe a lower boundary from inside a
// live call one boundary up, so the lower boundary is timed on its own
// replay and placed here, keeping one tree — and one self-time rule —
// per request.
func (t *trace) nest(parent, req int, name string, cursor, dur int64) (id int, next int64) {
	return t.add(parent, req, name, cursor, cursor+dur), cursor + dur
}

func (t *trace) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// selfTimes returns, per span id, the span's duration minus the part
// of its interval that its child spans cover. Overlapping children are
// counted once and children are clipped to the parent's interval.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, p := range spans {
		kids := children[p.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), p.Start
		for _, k := range kids {
			start, end := max(k.Start, edge), min(k.End, p.End)
			if end > start {
				covered += end - start
				edge = end
			}
		}
		self[p.ID] = p.dur() - covered
	}
	return self
}
