package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

func smokeConfig(t *testing.T, trace bool) config {
	return config{seed: 5, seconds: 0.3, trace: trace, scale: 0.01, setups: 1, dir: t.TempDir()}
}

// TestSmokeMatchesBenchmarkFile runs every workload at a hundredth of
// its size through the code path the command uses, untraced and
// traced, and holds the output against BENCHMARK.json in both
// directions: every workload and metric named there is emitted with
// its unit, and nothing is emitted that the file does not name.
func TestSmokeMatchesBenchmarkFile(t *testing.T) {
	bench, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	var inFile, inCode []string
	for _, w := range bench.Workloads {
		inFile = append(inFile, w.Name)
	}
	for _, w := range workloads {
		inCode = append(inCode, w.name)
	}
	if strings.Join(inFile, " ") != strings.Join(inCode, " ") {
		t.Fatalf("BENCHMARK.json workloads %v, the command runs %v", inFile, inCode)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rep, err := run(smokeConfig(t, trace), w)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d %v", w.name, trace, rep.Correct, rep.Failed, rep.Attempted, rep.notes)
			}
			want := bench.EndToEnd
			if trace {
				want = bench.PerLayer
			}
			var wantNames, gotNames []string
			for _, m := range want {
				wantNames = append(wantNames, m.Name+" "+m.Unit)
			}
			for name, m := range rep.Metrics {
				gotNames = append(gotNames, name+" "+m.Unit)
			}
			sort.Strings(wantNames)
			sort.Strings(gotNames)
			if strings.Join(wantNames, ", ") != strings.Join(gotNames, ", ") {
				t.Errorf("%s trace=%v:\nBENCHMARK.json names %v\nthe run emitted      %v", w.name, trace, wantNames, gotNames)
			}
			if !trace {
				for name, m := range rep.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v; it must never be 0", w.name, name, m.Value)
					}
				}
			} else if _, err := os.Stat(rep.record["trace_file"].(string)); err != nil {
				t.Errorf("%s: no trace file: %v", w.name, err)
			}
			line, err := json.Marshal(rep.result)
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
				t.Errorf("%s: result line %s does not have exactly correct, attempted, failed, metrics", w.name, line)
			}
		}
	}
}

// A wrong answer must fail the run: with the entity-count expectation
// off by one, both the check before the restart and the one after it
// count a failure, and main exits non-zero on !Correct.
func TestCorruptedExpectationFails(t *testing.T) {
	cfg := smokeConfig(t, false)
	cfg.corrupt = true
	rep, err := run(cfg, workloads[0])
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed != 2 {
		t.Errorf("correct=%v failed=%d with a corrupted expectation, want false and 2: %v", rep.Correct, rep.Failed, rep.notes)
	}
}
