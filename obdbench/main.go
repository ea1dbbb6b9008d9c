// Command obdbench is the repository's benchmark: five closed-loop
// workloads over the OBD grading and ATPG stack (grade, PODEM, exact SAT
// proofs, scan-style ATPG and the /v1 HTTP service), each checking every
// output against an oracle. See README.md for the workloads, metrics and
// bounds, and for how to read a traced run.
//
// From the repository root:
//
//	bash obdbench/run.sh --workload grade-10k --seed 1 --seconds 22 --trace 0
//	bash obdbench/run.sh --seed 1 --out r.json                     # every workload
//	bash obdbench/run.sh --runs 10 --parent ../parent --out pairs.json
//	bash obdbench/run.sh --compare pairs.json
//
// A single-workload run prints a report and, as its last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics, or with --trace 1 the per-layer metrics. It exits non-zero
// when any output check fails. With --parent, every run of this checkout
// is paired with a run of the same workload and seed in the parent
// checkout, the two sides alternating which goes first.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("obdbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run; empty runs every workload, each in its own process")
	seed := fs.Int64("seed", 1, "seed the workload inputs are made from")
	seconds := fs.Int("seconds", 22, "length of the timed loop, in seconds")
	trace := fs.Int("trace", 0, "1: traced run, reporting the per-layer metrics")
	spans := fs.String("spans", "", "traced single-workload runs write their spans here (default .bench_build/spans-<workload>.json)")
	out := fs.String("out", "", "every-workload runs write their report here")
	runs := fs.Int("runs", 1, "every-workload runs: runs per workload, with seeds seed, seed+1, ...")
	parent := fs.String("parent", "", "every-workload runs: root of the parent commit's checkout, whose runs are interleaved with this checkout's")
	compare := fs.Bool("compare", false, "compare the sides of an interleaved report (--compare PAIRS.json) or two reports (--compare A.json B.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "obdbench: --trace takes 0 or 1")
		return 2
	}
	var err error
	switch {
	case *compare:
		if fs.NArg() != 1 && fs.NArg() != 2 {
			fmt.Fprintln(stderr, "obdbench: --compare takes one interleaved report or two reports")
			return 2
		}
		err = compareReports(fs.Args(), stdout)
	case *name == "":
		err = runAll(*seed, *runs, *seconds, *trace, *parent, *out, stdout, stderr)
	default:
		w := workloadNamed(*name)
		if w == nil {
			fmt.Fprintf(stderr, "obdbench: unknown workload %q\n", *name)
			return 2
		}
		err = runOne(w, *seed, *seconds, *trace == 1, *spans, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "obdbench:", err)
		return 1
	}
	return 0
}

// Each run sets its workload up at least setupsPerRun times and for at
// least setupSeconds in all, split around the timed loop; setup_s is the
// median.
const (
	setupsPerRun = 5
	setupSeconds = 2 * time.Second
)

var errIncorrect = errors.New("output checks failed")

func runOne(w *workload, seed int64, seconds int, traced bool, spansPath string, stdout io.Writer) error {
	p := plan{seconds: time.Duration(seconds) * time.Second, warmup: w.warmup, setups: setupsPerRun, setupFor: setupSeconds}
	o, err := runWorkload(w, seed, p, traced)
	if err != nil {
		return err
	}
	for _, l := range o.lines {
		fmt.Fprintln(stdout, l)
	}
	if traced {
		if spansPath == "" {
			spansPath = filepath.Join(".bench_build", "spans-"+w.name+".json")
		}
		if err := writeSpans(spansPath, o.tr); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "spans written to %s\n", spansPath)
	}
	line, err := json.Marshal(o.result)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !o.Correct {
		return errIncorrect
	}
	return nil
}

func writeSpans(path string, tr *tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tr.mu.Lock()
	b, err := json.Marshal(tr.spans)
	tr.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// report is what an every-workload run writes with --out, and what
// --compare reads. An interleaved report (--parent) holds the runs of both
// sides, told apart by runRecord.Side.
type report struct {
	Seconds     int         `json:"seconds"`
	Trace       int         `json:"trace"`
	Interleaved bool        `json:"interleaved"`
	Runs        []runRecord `json:"runs"`
}

type runRecord struct {
	Side     string `json:"side,omitempty"` // sideParent or sideChange in an interleaved report
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	result
}

const (
	sideParent = "parent"
	sideChange = "change"
)

// runAll runs every workload `runs` times, each run in a child process so
// heap and RSS are the workload's own. A child runs obdbench/run.sh from
// the root of its checkout, which builds that checkout's benchmark (a
// no-op once built) and reads that checkout's inputs.
//
// With a parent checkout, every (seed, workload) runs once on each side,
// back to back, and the side that goes first alternates from one seed to
// the next and from one workload to the next. The host's speed drifts over
// minutes, so only runs made this way can be compared pair by pair.
func runAll(seed int64, runs, seconds, trace int, parent, out string, stdout, stderr io.Writer) error {
	rep := report{Seconds: seconds, Trace: trace, Interleaved: parent != ""}
	failed := false
	for r := 0; r < runs; r++ {
		s := seed + int64(r)
		for wi, w := range workloads {
			sides := []string{""}
			if parent != "" {
				sides = []string{sideParent, sideChange}
				if (r+wi)%2 == 1 {
					sides = []string{sideChange, sideParent}
				}
			}
			for _, side := range sides {
				dir := "."
				if side == sideParent {
					dir = parent
				}
				rec, ok, err := runChild(dir, w.name, s, seconds, trace, stdout, stderr)
				if err != nil {
					return err
				}
				rec.Side = side
				failed = failed || !ok
				rep.Runs = append(rep.Runs, rec)
			}
		}
	}
	if out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "report written to %s\n", out)
	}
	if failed {
		return errIncorrect
	}
	return nil
}

// runChild runs one workload in the checkout rooted at dir, echoes its
// report and returns its result. ok is false when the run failed an
// output check.
func runChild(dir, name string, seed int64, seconds, trace int, stdout, stderr io.Writer) (rec runRecord, ok bool, err error) {
	cmd := exec.Command("bash", "obdbench/run.sh", "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	cmd.Dir = dir
	cmd.Stderr = stderr
	b, runErr := cmd.Output()
	fmt.Fprintf(stdout, "== %s seed %d in %s\n", name, seed, dir)
	lines := bytes.Split(bytes.TrimRight(b, "\n"), []byte("\n"))
	for _, l := range lines[:len(lines)-1] {
		fmt.Fprintf(stdout, "%s\n", l)
	}
	rec = runRecord{Workload: name, Seed: seed}
	if err := json.Unmarshal(lines[len(lines)-1], &rec.result); err != nil {
		return rec, false, fmt.Errorf("%s seed %d in %s: no result (%v)", name, seed, dir, runErr)
	}
	return rec, runErr == nil && rec.Correct, nil
}
