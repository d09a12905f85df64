package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the generator made into a layer: its name, its
// interval in ns since the run began, the span that caused it, and the
// digests it carried.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Pkts   int    `json:"pkts,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths pay one nil check per call.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span: it returns the span's ID (for children to name as
// their parent) and its start.
func (t *tracer) begin() (int64, int64) {
	if t == nil {
		return 0, 0
	}
	return t.next.Add(1), int64(time.Since(t.t0))
}

// end closes a span opened by begin.
func (t *tracer) end(id, parent int64, name string, start int64, pkts int) {
	if t == nil {
		return
	}
	end := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end, Pkts: pkts})
	t.mu.Unlock()
}

// layerTimes is each span name's summed duration, self time (duration
// minus the part its children cover), call count and digests.
type layerTimes struct {
	dur, self int64
	calls     int
	pkts      int
}

// selfTimes folds the spans into per-name totals.
func (t *tracer) selfTimes() map[string]*layerTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := map[string]*layerTimes{}
	for _, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTimes{}
			out[s.Name] = lt
		}
		d := s.End - s.Start
		lt.dur += d
		lt.self += d - covered(s, children[s.ID])
		lt.calls++
		lt.pkts += s.Pkts
	}
	return out
}

// covered is how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// durations lists the durations of every span with this name, in ms.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
