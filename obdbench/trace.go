package main

import (
	"runtime/metrics"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded on the benchmark's side
// of the call. Op is the loop op it belongs to, or -1 for the probes a
// traced run makes after its loop. Parent 0 marks a root span.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Allocs   uint64 `json:"allocs"`
}

// tracer keeps the spans and work counters of a traced run in memory;
// they are written out when the run ends. A nil *tracer is an untraced
// run: workloads test for it and call the user-facing entry points.
type tracer struct {
	workload string
	t0       time.Time

	mu     sync.Mutex
	spans  []span
	counts map[string]map[int]float64 // work counters by name, then op
	values map[string]float64         // run-level values set by a workload's probe
	sample []metrics.Sample
}

const allocsMetric = "/gc/heap/allocs:objects"

func newTracer(workload string) *tracer {
	return &tracer{
		workload: workload,
		t0:       time.Now(),
		spans:    make([]span, 0, 1<<12),
		counts:   map[string]map[int]float64{},
		values:   map[string]float64{},
		sample:   []metrics.Sample{{Name: allocsMetric}},
	}
}

// heapAllocs reads the process-wide allocation count. Callers hold t.mu.
// The count is exact for single-goroutine work up to the runtime's
// per-span allocation caching, so per-span counts are near, not exactly,
// repeatable.
func (t *tracer) heapAllocs() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

// start opens a span named "layer.name" and returns its id.
func (t *tracer) start(op, parent int, name string) int {
	layer, stage, _ := strings.Cut(name, ".")
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Workload: t.workload, Op: op, Layer: layer, Name: stage})
	s := &t.spans[id-1]
	s.Allocs = t.heapAllocs()
	s.StartNs = time.Since(t.t0).Nanoseconds()
	return id
}

// stop closes span id.
func (t *tracer) stop(id int) {
	end := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndNs = end
	s.Allocs = t.heapAllocs() - s.Allocs
}

// stage runs fn inside a span.
func (t *tracer) stage(op, parent int, name string, fn func() error) error {
	id := t.start(op, parent, name)
	defer t.stop(id)
	return fn()
}

// count adds v to op's work counter name.
func (t *tracer) count(op int, name string, v float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.counts[name] == nil {
		t.counts[name] = map[int]float64{}
	}
	t.counts[name][op] += v
}

// perOpCount is a work counter per traced op, averaged first within each
// op class and then over the classes. Every op of a class does the same
// work, so the result repeats exactly however many ops of each class a
// run happened to trace.
func (t *tracer) perOpCount(name string, ops []int, classOf func(int) string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	sum, n := map[string]float64{}, map[string]float64{}
	for _, i := range ops {
		c := classOf(i)
		sum[c] += t.counts[name][i]
		n[c]++
	}
	if len(n) == 0 {
		return 0
	}
	total := 0.0
	for _, c := range sortedKeys(n) {
		total += sum[c] / n[c]
	}
	return total / float64(len(n))
}

// set records a run-level value.
func (t *tracer) set(name string, v float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.values[name] = v
}

// stageTotals is the self time and allocations of one span name summed
// over the loop ops, and separately over the probes.
type stageTotals struct {
	loopNs, probeNs         int64
	loopAllocs, probeAllocs uint64
}

// summary folds the spans into per-name totals. A span's self time is
// its duration minus the time its children cover; children never overlap
// because each op runs on one goroutine.
type summary struct {
	ops    []int // traced loop ops (root spans with op >= 0)
	opNs   int64 // their summed duration
	probes int   // probe roots
	stages map[string]*stageTotals
}

func (t *tracer) summarize() summary {
	t.mu.Lock()
	defer t.mu.Unlock()
	childNs := make([]int64, len(t.spans)+1)
	childAllocs := make([]uint64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent != 0 {
			childNs[s.Parent] += s.EndNs - s.StartNs
			childAllocs[s.Parent] += s.Allocs
		}
	}
	sum := summary{stages: map[string]*stageTotals{}}
	for _, s := range t.spans {
		dur := s.EndNs - s.StartNs
		if s.Parent == 0 {
			if s.Op >= 0 {
				sum.ops = append(sum.ops, s.Op)
				sum.opNs += dur
			} else {
				sum.probes++
			}
			continue
		}
		key := s.Layer + "." + s.Name
		st := sum.stages[key]
		if st == nil {
			st = &stageTotals{}
			sum.stages[key] = st
		}
		self := dur - childNs[s.ID]
		selfAllocs := s.Allocs - min(s.Allocs, childAllocs[s.ID])
		if s.Op >= 0 {
			st.loopNs += self
			st.loopAllocs += selfAllocs
		} else {
			st.probeNs += self
			st.probeAllocs += selfAllocs
		}
	}
	return sum
}

// perOp is a stage's self time in ms per op: loop spans averaged over
// the traced loop ops plus probe spans averaged over the probes.
func (s summary) perOpMs(key string) float64 {
	st := s.stages[key]
	if st == nil {
		return 0
	}
	ms := 0.0
	if len(s.ops) > 0 {
		ms += float64(st.loopNs) / float64(len(s.ops)) / 1e6
	}
	if s.probes > 0 {
		ms += float64(st.probeNs) / float64(s.probes) / 1e6
	}
	return ms
}

func (s summary) perOpAllocs(key string) float64 {
	st := s.stages[key]
	if st == nil {
		return 0
	}
	n := 0.0
	if len(s.ops) > 0 {
		n += float64(st.loopAllocs) / float64(len(s.ops))
	}
	if s.probes > 0 {
		n += float64(st.probeAllocs) / float64(s.probes)
	}
	return n
}

func (s summary) opMs() float64 {
	if len(s.ops) == 0 {
		return 0
	}
	return float64(s.opNs) / float64(len(s.ops)) / 1e6
}
