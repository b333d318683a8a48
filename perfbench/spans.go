package main

// In-memory span recorder for the traced run, plus the process
// measurements (allocated bytes, GC CPU, peak RSS) both runs use.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// span is one benchmark-owned span around a call into a layer. Op is
// the operation it belongs to (-1 for a call outside any operation) and
// Parent the span that caused it; all spans of one operation share Op.
type span struct {
	ID         int              `json:"id"`
	Parent     int              `json:"parent"`
	Op         int              `json:"op"`
	Name       string           `json:"name"`
	StartNS    int64            `json:"start_ns"`
	DurNS      int64            `json:"dur_ns"`
	AllocBytes uint64           `json:"alloc_bytes"`
	Counts     map[string]int64 `json:"counts,omitempty"`
}

// recorder keeps spans in memory until the run writes them out. A nil
// recorder records nothing.
type recorder struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

type openSpan struct {
	r      *recorder
	id     int
	parent int
	op     int
	name   string
	start  time.Time
	alloc  uint64
}

// start opens a span; its allocation count is the process-wide
// /gc/heap/allocs:bytes delta, so it is exact only while one operation
// runs at a time.
func (r *recorder) start(op, parent int, name string) *openSpan {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: -1, Op: -1, Name: name})
	r.mu.Unlock()
	return &openSpan{r: r, id: id, parent: parent, op: op, name: name, alloc: allocBytes(), start: time.Now()}
}

// end closes the span with the counts the call returned and returns
// its ID for use as a parent.
func (s *openSpan) end(counts map[string]int64) int {
	if s == nil {
		return -1
	}
	d := time.Since(s.start)
	a := allocBytes() - s.alloc
	s.r.mu.Lock()
	s.r.spans[s.id] = span{
		ID: s.id, Parent: s.parent, Op: s.op, Name: s.name,
		StartNS: s.start.Sub(s.r.base).Nanoseconds(), DurNS: d.Nanoseconds(),
		AllocBytes: a, Counts: counts,
	}
	s.r.mu.Unlock()
	return s.id
}

func (s *openSpan) ID() int {
	if s == nil {
		return -1
	}
	return s.id
}

// write stores the spans and the run's summary as JSON at path.
func (r *recorder) write(path string, summary map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	r.mu.Lock()
	summary["spans"] = r.spans
	data, err := json.Marshal(summary)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// byName returns the closed spans whose name is one of names.
func (r *recorder) byName(names ...string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		for _, n := range names {
			if s.Name == n {
				out = append(out, s)
			}
		}
	}
	return out
}

// coverage is the share of operation time that layer spans cover.
func (r *recorder) coverage() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ops, layers int64
	for _, s := range r.spans {
		switch {
		case s.Op < 0:
		case s.Name == "op":
			ops += s.DurNS
		default:
			layers += s.DurNS
		}
	}
	if ops == 0 {
		return 0
	}
	return float64(layers) / float64(ops)
}

var procSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func allocBytes() uint64 {
	s := []metrics.Sample{{Name: procSamples[0]}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// procSnap is a reading of the process counters a phase is measured by.
type procSnap struct {
	at              time.Time
	alloc           uint64
	gcCPU, totalCPU float64
}

func snapshot() procSnap {
	s := make([]metrics.Sample, len(procSamples))
	for i, n := range procSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return procSnap{at: time.Now(), alloc: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), totalCPU: s[2].Value.Float64()}
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
