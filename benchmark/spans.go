package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark from
// outside the program. Start and End are nanoseconds since the
// recorder was made; Parent is the ID of the span that caused this one
// (-1 for a root); spans of one operation share Op.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is the untraced run: timed returns the
// duration either way, so the numbers a workload needs for its
// end-to-end metrics do not depend on tracing being on.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID (-1 on a nil recorder).
func (r *recorder) begin(name string, parent int, op int64) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Name: name, Start: now, End: now, Parent: parent, Op: op})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// timed runs fn inside a span and returns how long it took.
func (r *recorder) timed(name string, parent int, op int64, fn func()) time.Duration {
	id := r.begin(name, parent, op)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	r.end(id)
	return d
}

// selfSeconds sums, per span name, each span's duration minus the part
// of it its direct children cover. Children of one parent that overlap
// (concurrent callers) are merged first, so covered time is never
// counted twice and self time cannot go negative.
func selfSeconds(spans []span) map[string]float64 {
	type iv struct{ lo, hi int64 }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		covered := int64(0)
		ivs := kids[s.ID]
		// Insertion sort by start: sibling lists are short or already
		// ordered (spans are appended in start order).
		for i := 1; i < len(ivs); i++ {
			for j := i; j > 0 && ivs[j].lo < ivs[j-1].lo; j-- {
				ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
			}
		}
		end := s.Start
		for _, k := range ivs {
			lo, hi := max(k.lo, end), min(k.hi, s.End)
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		out[s.Name] += float64(s.End-s.Start-covered) / 1e9
	}
	return out
}

// write stores the spans as one JSON object per line.
func (r *recorder) write(path string) error {
	if r == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
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
