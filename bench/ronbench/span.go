package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// function. Times are offsets from the tracer's epoch.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1: root
	Name   string        `json:"name"`
	Cell   int           `json:"cell"` // grid cell index, -1 when not per cell
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// tracer collects spans in memory; write puts them on disk when the
// run ends. A nil tracer records nothing, so timing wrappers can stay
// installed on untraced runs.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, cell int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Cell: cell, Start: now, End: now})
	t.mu.Unlock()
	return id
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = now
	d := now - t.spans[id].Start
	t.mu.Unlock()
	return d
}

// endAs closes the span under a name decided only now.
func (t *tracer) endAs(id int, name string) {
	if t == nil || id < 0 {
		return
	}
	t.end(id)
	t.mu.Lock()
	t.spans[id].Name = name
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSpans puts a traced run's spans on disk and says where.
func writeSpans(e *env, res *result, tr *tracer) error {
	if err := tr.write(e.spans); err != nil {
		return err
	}
	res.note("spans written to %s", e.spans)
	return nil
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its direct children cover. Overlapping children
// (concurrent calls under one parent) count their union once, and a
// child is clipped to its parent's interval.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 && p < len(spans) {
			children[p] = append(children[p], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i := range spans {
		self[i] = spans[i].dur()
		kids := children[i]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered time.Duration
		curStart, curEnd := time.Duration(0), time.Duration(-1)
		flush := func() {
			if curEnd > curStart {
				covered += curEnd - curStart
			}
		}
		for _, k := range kids {
			s, e := spans[k].Start, spans[k].End
			if s < spans[i].Start {
				s = spans[i].Start
			}
			if e > spans[i].End {
				e = spans[i].End
			}
			if e <= s {
				continue
			}
			if curEnd < curStart || s > curEnd {
				flush()
				curStart, curEnd = s, e
			} else if e > curEnd {
				curEnd = e
			}
		}
		flush()
		self[i] -= covered
	}
	return self
}

// spanMedians is the median duration of the spans of each name (zero
// for a name with no spans).
func spanMedians(spans []span) map[string]time.Duration {
	durs := map[string][]float64{}
	for i := range spans {
		durs[spans[i].Name] = append(durs[spans[i].Name], spans[i].dur().Seconds())
	}
	out := make(map[string]time.Duration, len(durs))
	for name, d := range durs {
		out[name] = time.Duration(median(d) * float64(time.Second))
	}
	return out
}
