package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans are
// recorded from the benchmark's side of each layer's public API; spans
// inside the program are a later issue.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Cycle  int    `json:"cycle"`  // -1 outside the measured cycles
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory and writes them out when the run ends.
// A nil recorder records nothing, so the untraced pass runs the same
// code with no span bookkeeping. The workloads have one producer
// goroutine, so the open-span stack gives each span its parent.
type recorder struct {
	epoch time.Time
	cycle int
	spans []span
	open  []int // indices into spans
}

func newRecorder(capacity int) *recorder {
	return &recorder{epoch: time.Now(), cycle: -1, spans: make([]span, 0, capacity)}
}

func (r *recorder) setCycle(c int) {
	if r != nil {
		r.cycle = c
	}
}

// begin opens a span under the innermost open one.
func (r *recorder) begin(name string) {
	if r == nil {
		return
	}
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].ID
	}
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Cycle: r.cycle, Name: name,
		Start: int64(time.Since(r.epoch)),
	})
	r.open = append(r.open, len(r.spans)-1)
}

// end closes the innermost open span and returns its duration.
func (r *recorder) end() time.Duration {
	if r == nil {
		return 0
	}
	i := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	r.spans[i].End = int64(time.Since(r.epoch))
	return r.spans[i].dur()
}

// add records an already-measured interval as a child of the innermost
// open span (used for stage times a layer reports itself).
func (r *recorder) add(name string, start time.Time, d time.Duration) {
	if r == nil {
		return
	}
	r.begin(name)
	i := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	r.spans[i].Start = int64(start.Sub(r.epoch))
	r.spans[i].End = r.spans[i].Start + int64(d)
}

// durations returns the per-span durations (ms) of every closed span
// with the given name inside a measured cycle.
func (r *recorder) durations(name string) samples {
	var out samples
	if r == nil {
		return out
	}
	for _, s := range r.spans {
		if s.Name == name && s.Cycle >= 0 {
			out.add(s.dur())
		}
	}
	return out
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover (overlapping children are
// counted once).
func selfTimes(spans []span) map[int]time.Duration {
	type iv struct{ lo, hi int64 }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		var covered int64
		cur := s.Start
		for _, k := range ivs {
			lo, hi := max(k.lo, cur), min(k.hi, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// selfDurations returns the per-span self times (ms) of every span with
// the given name inside a measured cycle.
func (r *recorder) selfDurations(name string) samples {
	var out samples
	if r == nil {
		return out
	}
	self := selfTimes(r.spans)
	for _, s := range r.spans {
		if s.Name == name && s.Cycle >= 0 {
			out.add(self[s.ID])
		}
	}
	return out
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(path string) error {
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
