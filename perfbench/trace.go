package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Cell   string `json:"cell"`
	Name   string `json:"name"`
	// StartNs and EndNs are offsets from the tracer's start.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
	// AllocBytes is the heap allocated between start and end, by any
	// goroutine (the closed loops have one caller).
	AllocBytes uint64 `json:"alloc_bytes"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer keeps spans in memory; write emits them when the run ends.
type tracer struct {
	t0     time.Time
	spans  []span
	allocs []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), allocs: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (t *tracer) heapAllocs() uint64 {
	metrics.Read(t.allocs)
	return t.allocs[0].Value.Uint64()
}

// begin opens a span and returns its id.
func (t *tracer) begin(name, cell string, parent int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Cell: cell, Name: name,
		AllocBytes: t.heapAllocs(), StartNs: int64(time.Since(t.t0))})
	return id
}

// end closes span id and returns it.
func (t *tracer) end(id int) span {
	s := &t.spans[id]
	s.EndNs = int64(time.Since(t.t0))
	s.AllocBytes = t.heapAllocs() - s.AllocBytes
	return *s
}

// write stores the spans as JSON lines.
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
	for _, s := range t.spans {
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

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// passSpans keeps the spans recorded under a replay pass's "cell" roots,
// leaving out the set-up spans.
func passSpans(spans []span) []span {
	var out []span
	for _, s := range spans {
		r := s
		for r.Parent >= 0 {
			r = spans[r.Parent]
		}
		if r.Name == "cell" {
			out = append(out, s)
		}
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
	var total, end int64
	end = parent.StartNs
	for _, k := range kids {
		lo, hi := max(k.StartNs, end), min(k.EndNs, parent.EndNs)
		if hi > lo {
			total += hi - lo
			end = hi
		}
	}
	return time.Duration(total)
}

// formatSelf renders self times per name, largest first, per pass.
func formatSelf(self map[string]time.Duration, passes int) string {
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	out := ""
	for _, n := range names {
		out += fmt.Sprintf("  self %-18s %9.3f ms/pass\n", n, ms(self[n])/float64(max(passes, 1)))
	}
	return out
}
