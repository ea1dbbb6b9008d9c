package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The workloads read testdata/ and BENCHMARK.json relative to the
// repository root, where the benchmark runs.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// TestWorkloadsOneOp runs every workload through the benchmark's own
// setup, loop, oracle and metric code for one op untraced, and for one
// traced plus one untraced op traced, at seed 1 so the input drift guard
// is checked too.
func TestWorkloadsOneOp(t *testing.T) {
	for _, w := range workloads {
		if len(seedOnePins[w.name]) == 0 {
			t.Errorf("%s: no seed-1 input pins", w.name)
		}
		for _, traced := range []bool{false, true} {
			p := plan{seconds: time.Minute, maxOps: 1, setups: 1}
			defs := endToEnd
			if traced {
				p.maxOps = 2
				defs = perLayer
			}
			o, err := runWorkload(w, 1, p, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !o.Correct || o.Failed != 0 || o.Attempted != p.maxOps {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%v", w.name, traced, o.Correct, o.Attempted, o.Failed, o.lines)
			}
			if len(o.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(o.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := o.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) {
					t.Errorf("%s traced=%v: metric %s = %+v", w.name, traced, d.Name, m)
				}
			}
			if !traced {
				for _, d := range endToEnd {
					if o.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.name, d.Name, o.Metrics[d.Name].Value)
					}
				}
			}
		}
	}
}

// TestLayerTimesNonZero checks that the per-layer metrics in ms are
// measured on every workload, as the metric list promises.
func TestLayerTimesNonZero(t *testing.T) {
	for _, w := range workloads {
		o, err := runWorkload(w, 2, plan{seconds: time.Minute, maxOps: 1, setups: 1}, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range perLayer {
			if d.Unit == "ms" && o.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, d.Name, o.Metrics[d.Name].Value)
			}
		}
	}
}

func TestQuantileAndBeyond(t *testing.T) {
	var s []float64
	for i := 100; i >= 1; i-- {
		s = append(s, float64(i))
	}
	for _, c := range []struct {
		p      float64
		want   float64
		beyond int
	}{
		{0.5, 50, 50},
		{0.7, 70, 30},
		{0.9, 90, 10},
		{0.99, 99, 1},
		{1, 100, 0},
	} {
		if got := quantile(s, c.p); got != c.want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
		if got := beyond(len(s), c.p); got != c.beyond {
			t.Errorf("beyond(100, %v) = %d, want %d", c.p, got, c.beyond)
		}
	}
	// The smallest runs that still keep ten samples beyond each tail
	// percentile the workloads use.
	for _, c := range []struct {
		n int
		p float64
	}{{100, 0.9}, {50, 0.8}, {34, 0.7}, {1000, 0.99}} {
		if beyond(c.n, c.p) != 10 || beyond(c.n-1, c.p) >= 10 {
			t.Errorf("beyond(%d, %v) = %d, beyond(%d, %v) = %d", c.n, c.p, beyond(c.n, c.p), c.n-1, c.p, beyond(c.n-1, c.p))
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 3, 2, 1}, 1.25, 3.75},
		{[]float64{5, 1, 9}, 1, 9},
		{[]float64{3, 7}, 2, 8},
	} {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := func(base float64, n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = base * (1 + 0.002*float64(i%3))
		}
		return v
	}
	noisy := []float64{70, 130, 80, 120, 90, 110, 100, 75, 125, 100}
	for _, c := range []struct {
		name          string
		parent, chg   []float64
		lowerIsBetter bool
		paired        bool
		want          string
	}{
		{"same", steady(100, 10), steady(100, 10), true, true, verdictUnchanged},
		{"slower past the bound", steady(100, 10), steady(120, 10), true, true, verdictWorse},
		{"slower within the bound", steady(100, 10), steady(105, 10), true, true, verdictUnchanged},
		{"faster in every pair", steady(100, 10), steady(90, 10), true, true, verdictImproved},
		{"higher is better", steady(100, 10), steady(110, 10), false, true, verdictImproved},
		{"throughput drop", steady(100, 10), steady(80, 10), false, true, verdictWorse},
		{"too few runs to claim a gain", steady(100, 3), steady(90, 3), true, true, verdictUnchanged},
		{"faster, but not interleaved", steady(100, 10), steady(90, 10), true, false, verdictUnchanged},
		{"slower, not interleaved", steady(100, 10), steady(120, 10), true, false, verdictWorse},
		{"spread wider than the bound", noisy, noisy, true, true, verdictUnresolved},
	} {
		if got := verdict(c.parent, c.chg, c.lowerIsBetter, 0.1, c.paired); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareReports checks that an interleaved report is compared side
// against side, and that separate reports never read as improved.
func TestCompareReports(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rep report) string {
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// Every end-to-end metric reads 10% better on the change side.
	run := func(side string, seed int64, factor float64) runRecord {
		rec := runRecord{Side: side, Workload: workloads[0].name, Seed: seed, result: result{Correct: true, Attempted: 1, Metrics: map[string]metric{}}}
		for k, d := range endToEnd {
			v := float64(100+k) * (1 + 0.001*float64(seed%3))
			if d.Better == "lower" {
				v *= factor
			} else {
				v /= factor
			}
			rec.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		}
		return rec
	}
	pairs := report{Interleaved: true}
	var parent, change report
	for seed := int64(1); seed <= 10; seed++ {
		pairs.Runs = append(pairs.Runs, run(sideParent, seed, 1), run(sideChange, seed, 0.9))
		parent.Runs = append(parent.Runs, run("", seed, 1))
		change.Runs = append(change.Runs, run("", seed, 0.9))
	}
	for _, c := range []struct {
		paths        []string
		wantImproved bool
	}{
		{[]string{write("pairs.json", pairs)}, true},
		{[]string{write("parent.json", parent), write("change.json", change)}, false},
	} {
		var out strings.Builder
		if err := compareReports(c.paths, &out); err != nil {
			t.Fatalf("%v: %v", c.paths, err)
		}
		want := 0
		if c.wantImproved {
			want = len(endToEnd)
		}
		if got := strings.Count(out.String(), verdictImproved); got != want {
			t.Errorf("%v: %d improved verdicts, want %d:\n%s", c.paths, got, want, out.String())
		}
	}
	if err := compareReports([]string{filepath.Join(dir, "parent.json")}, io.Discard); err == nil {
		t.Error("a report made without --parent was compared on its own")
	}
}

// TestMetricListsMatchBenchmarkJSON keeps BENCHMARK.json and the
// metrics the runs print in step.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	var spec benchmarkSpec
	if err := readJSON(benchmarkFile, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark %d", len(spec.EndToEnd), len(endToEnd))
	}
	setupBound := 0.0
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end-to-end %d: BENCHMARK.json %s %s %s, benchmark %+v", i, m.Name, m.Unit, m.Better, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound > setupBound {
			t.Errorf("%s has a larger bound (%v) than setup_s (%v)", m.Name, m.Bound, setupBound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %s %s %s, benchmark %+v", i, m.Name, m.Unit, m.Better, d)
		}
	}
}
