package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
)

// benchmarkFile is BENCHMARK.json at the repository root: the workloads
// and metrics, with the bounds --compare applies.
const benchmarkFile = "BENCHMARK.json"

type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// series collects one side's values of every metric per workload, ordered
// by seed so that the runs of an interleaved report pair up.
func series(rep *report, side string) map[string]map[string][]float64 {
	runs := append([]runRecord(nil), rep.Runs...)
	sort.SliceStable(runs, func(i, j int) bool { return runs[i].Seed < runs[j].Seed })
	out := map[string]map[string][]float64{}
	for _, r := range runs {
		if r.Side != side {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

// compareReports prints a verdict for every (metric, workload) pair:
// end-to-end metrics against their bounds in BENCHMARK.json, per-layer
// counts by exact match, and the other per-layer metrics as medians only
// (they have no bound). It fails when any end-to-end metric got worse or
// any count differs.
//
// One path is an interleaved report, whose parent and change runs are
// compared pair by pair. Two paths are separate reports, the first taken
// as the parent; their runs were made minutes apart, so they can show a
// metric within or beyond its bound but never an improvement.
func compareReports(paths []string, stdout io.Writer) error {
	var spec benchmarkSpec
	if err := readJSON(benchmarkFile, &spec); err != nil {
		return err
	}
	var ps, cs map[string]map[string][]float64
	paired := len(paths) == 1
	if paired {
		var rep report
		if err := readJSON(paths[0], &rep); err != nil {
			return err
		}
		if !rep.Interleaved {
			return fmt.Errorf("%s is not an interleaved report (made with --parent)", paths[0])
		}
		ps, cs = series(&rep, sideParent), series(&rep, sideChange)
	} else {
		var parent, change report
		if err := readJSON(paths[0], &parent); err != nil {
			return err
		}
		if err := readJSON(paths[1], &change); err != nil {
			return err
		}
		if parent.Interleaved || change.Interleaved {
			return fmt.Errorf("compare an interleaved report on its own")
		}
		ps, cs = series(&parent, ""), series(&change, "")
		fmt.Fprintln(stdout, "separate reports: the runs were not interleaved, so no gain can be claimed from them")
	}
	bad := 0
	for _, w := range workloads {
		fmt.Fprintf(stdout, "%s (%d vs %d runs)\n", w.name, runsOf(ps[w.name]), runsOf(cs[w.name]))
		for _, m := range spec.EndToEnd {
			p, c := ps[w.name][m.Name], cs[w.name][m.Name]
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			v := verdict(p, c, m.Better == "lower", m.Bound, paired)
			if v == verdictWorse {
				bad++
			}
			fmt.Fprintf(stdout, "  %-26s %12.6g -> %12.6g %-5s %+7.2f%%  spread %5.1f%% / %5.1f%%  bound %4.0f%%  %s\n",
				m.Name, median(p), median(c), m.Unit, 100*(median(c)/median(p)-1),
				100*spread(p), 100*spread(c), 100*m.Bound, v)
		}
		for _, m := range spec.PerLayer {
			p, c := ps[w.name][m.Name], cs[w.name][m.Name]
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			v := ""
			// Allocation counts are near, not exactly, repeatable (see
			// tracer.heapAllocs), so only the work counters must match.
			if m.Unit == "count" && !strings.HasSuffix(m.Name, "_allocs") {
				v = "match"
				if !slices.Equal(p, c) {
					v = "differs"
					bad++
				}
			}
			fmt.Fprintf(stdout, "  %-26s %12.6g -> %12.6g %-5s %s\n", m.Name, median(p), median(c), m.Unit, v)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric(s) worse or counts differing", bad)
	}
	return nil
}

func runsOf(m map[string][]float64) int {
	for _, v := range m {
		return len(v)
	}
	return 0
}
