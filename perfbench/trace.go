package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans are kept in
// memory and written out with the results when the run ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0: no parent
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	// Ops is how many operations the span timed, for probes that time
	// a batch of operations too short to time one by one.
	Ops int `json:"ops,omitempty"`
}

// tracer records spans from any goroutine.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int) { t.endOps(id, 1) }

// endOps closes span id, which timed ops operations.
func (t *tracer) endOps(id, ops int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Ops = ops
}

// timing summarizes one span name: per-operation time at the median
// and at the tail. Tail is the 99th percentile when at least ten
// samples lie beyond it, else the highest percentile above the median
// that has ten samples beyond it (TailPct says which), else the
// median.
type timing struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50_ns"`
	Tail    float64 `json:"tail_ns"`
	TailPct float64 `json:"tail_pct"`
}

// timings summarizes every span name.
func (t *tracer) timings() map[string]timing {
	t.mu.Lock()
	defer t.mu.Unlock()
	per := map[string][]float64{}
	for _, s := range t.spans {
		per[s.Name] = append(per[s.Name], float64(s.End-s.Start)/float64(s.Ops))
	}
	out := map[string]timing{}
	for name, ds := range per {
		sort.Float64s(ds)
		n := len(ds)
		med := rank(50, n)
		tm := timing{N: n, P50: ds[med], Tail: ds[med], TailPct: 50}
		if i := rank(99, n); n-1-i >= 10 {
			tm.Tail, tm.TailPct = ds[i], 99
		} else if i := n - 11; i > med {
			// Index n-11 has exactly ten samples beyond it.
			tm.Tail, tm.TailPct = ds[i], 100*float64(n-10)/float64(n)
		}
		out[name] = tm
	}
	return out
}

// rank is the nearest-rank index of the p-th percentile of n sorted
// samples.
func rank(p float64, n int) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return i
}
