// Command hazyload is the repository's benchmark: it builds a Hazy
// database the way cmd/hazyd does, serves it on a loopback TCP port
// inside this process, drives it closed-loop over the text protocol,
// checks the answers, and prints every metric by name with its unit.
// README.md in this directory is the catalogue; BENCHMARK.json at the
// repository root is the contract a driver checks it against.
//
//	go run -C cmd/hazyload . --workload <name|all> --seed N --seconds S --trace 0|1 [--selfcheck]
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}
// with the end-to-end metrics untraced and the per-layer metrics
// traced. The exit code is non-zero when any op or check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	var (
		name      = flag.String("workload", "all", "workload name, or all")
		seed      = flag.Uint64("seed", 1, "seed for the corpus and every statement stream")
		seconds   = flag.Float64("seconds", 10, "measured seconds per run")
		trace     = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics; 0: end-to-end metrics, tracing off")
		selfcheck = flag.Bool("selfcheck", false, "run the set twice and compare every end-to-end metric with its bound in BENCHMARK.json")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "hazyload: unexpected arguments; see -h")
		os.Exit(2)
	}
	set := workloads
	if *name != "all" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "hazyload: no workload %q\n", *name)
			os.Exit(2)
		}
		set = []*workload{w}
	}
	// Scratch lives at the root of the checkout — on the filesystem the
	// checkout is on, so fsync costs what it costs there — and
	// .gitignore names it.
	root, _, err := findBenchmarkFile()
	scratch := filepath.Join(root, ".hazyload")
	if err == nil {
		err = os.MkdirAll(scratch, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hazyload:", err)
		os.Exit(1)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace != 0, scale: 1, setups: 3, dir: scratch}
	if cfg.trace {
		cfg.setups = 1 // set-up time is an end-to-end metric; the traced run does not report it
	}
	ok := true
	if *selfcheck {
		ok, err = selfCheck(cfg, set)
	} else {
		for _, w := range set {
			var rep *report
			if rep, err = run(cfg, w); err != nil {
				break
			}
			rep.print()
			ok = ok && rep.Correct
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hazyload:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// print writes the human-readable report, the run record, and last
// the result line.
func (r *report) print() {
	fmt.Printf("== %s\n", r.workload)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Printf("%-28s %14.4f %-6s\n", name, m.Value, m.Unit)
	}
	for _, m := range r.extra {
		fmt.Printf("%-28s %14.4f %-6s (not gated) %s\n", m.name, m.Value, m.Unit, m.note)
	}
	for _, n := range r.notes {
		fmt.Println(n)
	}
	record, _ := json.Marshal(r.record)
	fmt.Printf("record %s\n", record)
	line, _ := json.Marshal(r.result)
	fmt.Printf("%s\n", line)
}

// benchmarkFile is the part of BENCHMARK.json this program reads.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []benchMetric           `json:"end_to_end"`
	PerLayer  []benchMetric           `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// findBenchmarkFile returns the nearest directory at or above the
// working directory that holds BENCHMARK.json — the root of the
// checkout; the command runs from cmd/hazyload — and the file's bytes.
func findBenchmarkFile() (dir string, data []byte, err error) {
	if dir, err = os.Getwd(); err != nil {
		return "", nil, err
	}
	for {
		if data, err = os.ReadFile(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, data, nil
		}
		if filepath.Dir(dir) == dir {
			return "", nil, fmt.Errorf("no BENCHMARK.json in the working directory or above it")
		}
		dir = filepath.Dir(dir)
	}
}

func readBenchmarkFile() (*benchmarkFile, error) {
	_, data, err := findBenchmarkFile()
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	return &f, json.Unmarshal(data, &f)
}

// selfCheck runs the set twice on the same code and seed and prints,
// per end-to-end metric and workload, how much worse the second run
// was beside the metric's bound. It reports false when a run failed
// its checks or a difference exceeds its bound.
func selfCheck(cfg config, set []*workload) (bool, error) {
	bench, err := readBenchmarkFile()
	if err != nil {
		return false, err
	}
	cfg.trace = false
	ok := true
	fmt.Printf("%-18s %-22s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "worse", "bound")
	for _, w := range set {
		var reps [2]*report
		for i := range reps {
			if reps[i], err = run(cfg, w); err != nil {
				return false, err
			}
			ok = ok && reps[i].Correct
		}
		for _, m := range bench.EndToEnd {
			a, b := reps[0].Metrics[m.Name].Value, reps[1].Metrics[m.Name].Value
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = (a - b) / a
			}
			flag := ""
			if worse > m.Bound {
				flag, ok = "  EXCEEDS", false
			}
			fmt.Printf("%-18s %-22s %14.4f %14.4f %+7.1f%% %5.0f%%%s\n", w.name, m.Name, a, b, 100*worse, 100*m.Bound, flag)
		}
	}
	return ok, nil
}
