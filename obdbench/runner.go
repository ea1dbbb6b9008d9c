package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// plan sizes one run. The command line fixes everything but the length;
// tests pass a small op count instead.
type plan struct {
	seconds time.Duration // length of the timed loop
	maxOps  int           // stop after this many timed ops (0: no limit)
	warmup  int           // untimed ops after setup
	// The workload is set up at least `setups` times and for at least
	// setupFor, half before the timed loop and half after it; setup_s is
	// the median. Millisecond setups taken back to back would all sample
	// one moment of a shared host's speed.
	setups   int
	setupFor time.Duration
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is a finished run: its result, the report lines printed before
// it, and the tracer of a traced run.
type outcome struct {
	result
	lines []string
	tr    *tracer
}

// sample is one timed op.
type sample struct {
	i      int
	lat    time.Duration
	traced bool
}

// runWorkload sets the workload up, warms it up, runs its timed closed
// loop and checks every output. A traced run reports the per-layer
// metrics, an untraced one the end-to-end metrics. The error is for runs
// that could not be made at all (setup or warm-up failed); failed oracle
// checks are counted in the result.
func runWorkload(w *workload, seed int64, p plan, traced bool) (*outcome, error) {
	setupS, inst, err := timeSetups(w, seed, p.setups, p.setupFor/2)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	for i := 0; i < p.warmup; i++ {
		if err := runOp(inst, i, nil); err != nil {
			return nil, fmt.Errorf("%s: warm-up op %d: %w", w.name, i, err)
		}
	}

	var tr *tracer
	if traced {
		tr = newTracer(w.name)
	}
	runtime.GC()
	rss := startRSS()
	before := readHeap()
	samples, failed, firstErr, elapsed, building := closedLoop(inst, w.clients, w.cycle, p, tr)
	after := readHeap()
	rssMB, rssErr := rss.finish()
	// The clients build some op inputs inside the loop (serve-mix's miss
	// bodies). That is the benchmark's work, not the program's, so the
	// rate leaves out each client's share of the building time, and the
	// allocation metrics leave out the allocations of the same input calls
	// replayed after the loop.
	elapsed -= building / time.Duration(w.clients)
	inputAllocs, err := replayInputs(inst, samples)
	if err != nil {
		return nil, err
	}
	more, last, err := timeSetups(w, seed, 1, p.setupFor/2)
	if err != nil {
		return nil, err
	}
	last.close()
	setupS = append(setupS, more...)
	o := &outcome{tr: tr}
	o.Attempted, o.Failed = len(samples), failed
	if firstErr != nil {
		o.lines = append(o.lines, "FAIL "+firstErr.Error())
	}
	checksOK := true
	if traced {
		if err := inst.probe(tr); err != nil {
			checksOK = false
			o.lines = append(o.lines, "FAIL probe: "+err.Error())
		}
	}
	if err := inst.finish(); err != nil {
		checksOK = false
		o.lines = append(o.lines, "FAIL run check: "+err.Error())
	}
	digests := inst.digests()
	for _, k := range sortedKeys(digests) {
		o.lines = append(o.lines, fmt.Sprintf("input %s = %s", k, digests[k]))
	}
	if seed == 1 {
		for _, k := range sortedKeys(seedOnePins[w.name]) {
			if want := seedOnePins[w.name][k]; digests[k] != want {
				checksOK = false
				o.lines = append(o.lines, fmt.Sprintf("FAIL input drift: %s = %s, pinned %s", k, digests[k], want))
			}
		}
	}
	o.Correct = checksOK && o.Failed == 0 && o.Attempted > 0

	lat := make([]float64, 0, len(samples))
	for _, s := range samples {
		lat = append(lat, float64(s.lat)/1e6)
	}
	n := len(lat)
	o.lines = append(o.lines, fmt.Sprintf("%s seed %d: %d ops in %.2f s after %d warm-up ops, %d failed",
		w.name, seed, n, elapsed.Seconds(), p.warmup, o.Failed))
	if building > 0 {
		o.lines = append(o.lines, fmt.Sprintf("  left out: %.3f s of input building over %d clients, %d input allocations",
			building.Seconds(), w.clients, inputAllocs.objects))
	}
	o.lines = append(o.lines, classLines(inst, samples)...)
	values := map[string]float64{}
	if traced {
		values = layerMetrics(tr.summarize(), tr, inst.class, overheadPct(inst, samples))
		o.Metrics = withUnits(values, perLayer)
	} else {
		values["setup_s"] = median(setupS)
		values["ops_per_s"] = float64(n) / elapsed.Seconds()
		values["latency_p50_ms"] = quantile(lat, 0.5)
		values["latency_tail_ms"] = quantile(lat, w.tail)
		values["allocs_per_op"] = (float64(after.objects-before.objects) - float64(inputAllocs.objects)) / float64(max(n, 1))
		values["alloc_mb_per_op"] = (float64(after.bytes-before.bytes) - float64(inputAllocs.bytes)) / float64(max(n, 1)) / 1e6
		if rssErr != nil {
			o.Correct = false
			o.lines = append(o.lines, "FAIL rss_mb: "+rssErr.Error())
		}
		values["rss_mb"] = median(rssMB)
		o.Metrics = withUnits(values, endToEnd)
		if b := beyond(n, w.tail); b < 10 {
			o.lines = append(o.lines, fmt.Sprintf("WARN only %d samples beyond p%.0f; lengthen the run", b, 100*w.tail))
		}
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		line := fmt.Sprintf("  %-26s %14.6g %s", d.Name, values[d.Name], d.Unit)
		switch d.Name {
		case "setup_s":
			line += fmt.Sprintf(" (median of %d setups)", len(setupS))
		case "latency_p50_ms":
			line += fmt.Sprintf(" (%d samples)", n)
		case "latency_tail_ms":
			line += fmt.Sprintf(" (p%.0f, %d samples, %d beyond)", 100*w.tail, n, beyond(n, w.tail))
		case "rss_mb":
			line += fmt.Sprintf(" (median of %d samples, peak %.4g)", len(rssMB), quantile(rssMB, 1))
		}
		o.lines = append(o.lines, line)
	}
	return o, nil
}

// timeSetups sets the workload up at least n times and for at least d.
// It returns every setup's duration in seconds and the last instance,
// closing the others.
func timeSetups(w *workload, seed int64, n int, d time.Duration) ([]float64, instance, error) {
	var inst instance
	var secs []float64
	for start := time.Now(); len(secs) < n || time.Since(start) < d; {
		t0 := time.Now()
		next, err := w.setup(seed)
		secs = append(secs, time.Since(t0).Seconds())
		if err != nil {
			if inst != nil {
				inst.close()
			}
			return nil, nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		if inst != nil {
			inst.close()
		}
		inst = next
	}
	return secs, inst, nil
}

// runOp builds op i's input and runs it.
func runOp(inst instance, i int, tr *tracer) error {
	in, err := inst.input(i)
	if err != nil {
		return err
	}
	return inst.op(i, in, tr)
}

// closedLoop runs ops from `clients` callers until the plan's time or op
// count runs out; each caller sends its next op when the last returns.
// In a traced run every other cycle of ops is traced and the rest run
// untraced, which gives the trace overhead. Op indices continue after the
// warm-up. building is the time the callers spent building inputs, summed
// over the callers.
func closedLoop(inst instance, clients, cycle int, p plan, tr *tracer) (samples []sample, failed int, firstErr error, elapsed, building time.Duration) {
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	first := p.warmup
	next.Store(int64(first))
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if (p.maxOps > 0 && i-first >= p.maxOps) || time.Since(start) >= p.seconds {
					return
				}
				var opTr *tracer
				if tr != nil && (i-first)/cycle%2 == 0 {
					opTr = tr
				}
				b0 := time.Now()
				in, err := inst.input(i)
				build := time.Since(b0)
				var lat time.Duration
				if err == nil {
					t0 := time.Now()
					err = inst.op(i, in, opTr)
					lat = time.Since(t0)
				}
				mu.Lock()
				building += build
				samples = append(samples, sample{i: i, lat: lat, traced: opTr != nil})
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = fmt.Errorf("op %d: %w", i, err)
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return samples, failed, firstErr, time.Since(start), building
}

// replayInputs builds the inputs of the timed ops again, one after the
// other, and returns their heap allocations.
func replayInputs(inst instance, samples []sample) (heapCounts, error) {
	before := readHeap()
	for _, s := range samples {
		if _, err := inst.input(s.i); err != nil {
			return heapCounts{}, fmt.Errorf("replaying the input of op %d: %w", s.i, err)
		}
	}
	after := readHeap()
	return heapCounts{objects: after.objects - before.objects, bytes: after.bytes - before.bytes}, nil
}

// overheadPct is how much longer the traced ops of a traced run took than
// its untraced ones. Means are taken per op class and weighted by the
// class's share of the ops, so an uneven split of scan-s27's styles
// between traced and untraced ops does not read as overhead.
func overheadPct(inst instance, samples []sample) float64 {
	type sums struct{ tNs, tN, uNs, uN float64 }
	byClass := map[string]*sums{}
	for _, s := range samples {
		c := byClass[inst.class(s.i)]
		if c == nil {
			c = &sums{}
			byClass[inst.class(s.i)] = c
		}
		if s.traced {
			c.tNs += float64(s.lat)
			c.tN++
		} else {
			c.uNs += float64(s.lat)
			c.uN++
		}
	}
	var traced, untraced float64
	for _, c := range byClass {
		if c.tN == 0 || c.uN == 0 {
			continue
		}
		n := c.tN + c.uN
		traced += n * c.tNs / c.tN
		untraced += n * c.uNs / c.uN
	}
	if untraced == 0 {
		return 0
	}
	return 100 * (traced/untraced - 1)
}

// classLines reports latency by op class (scan style, request class).
func classLines(inst instance, samples []sample) []string {
	byClass := map[string][]float64{}
	for _, s := range samples {
		c := inst.class(s.i)
		byClass[c] = append(byClass[c], float64(s.lat)/1e6)
	}
	if len(byClass) < 2 {
		return nil
	}
	var lines []string
	for _, c := range sortedKeys(byClass) {
		lat := byClass[c]
		lines = append(lines, fmt.Sprintf("  class %-12s %6d ops, p50 %.4g ms, p90 %.4g ms", c, len(lat), quantile(lat, 0.5), quantile(lat, 0.9)))
	}
	return lines
}

func withUnits(values map[string]float64, defs []metricDef) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.Name] = metric{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}

type heapCounts struct{ objects, bytes uint64 }

func readHeap() heapCounts {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return heapCounts{objects: s[0].Value.Uint64(), bytes: s[1].Value.Uint64()}
}

// rssSampler reads the process's resident set size every 50 ms while the
// timed loop runs. Their median, rss_mb, is steadier than the peak: the
// peak moves by ±10% from run to run with where garbage collections fall.
type rssSampler struct {
	stop, done chan struct{}
	mb         []float64
	err        error
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			mb, err := residentMB()
			if err != nil {
				s.err = err
				return
			}
			s.mb = append(s.mb, mb)
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler, waits for it and returns its samples.
func (s *rssSampler) finish() ([]float64, error) {
	close(s.stop)
	<-s.done
	return s.mb, s.err
}

// residentMB reads the resident set size from /proc/self/statm, in MB.
func residentMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("malformed /proc/self/statm: %q", b)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / 1e6, err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
