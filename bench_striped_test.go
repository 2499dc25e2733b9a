// Striped-reorganization benchmark: the PR-5 tentpole claim is that
// partition-striping makes reorganization cost scale with the stripe
// size instead of the view size, with the stripes re-clustered in
// parallel. BenchmarkStripedReorg measures a full reorganization
// (Retrain: one model rebuild over a handful of examples, then
// re-eps + re-sort of all 50k entities) at 1 vs 4 stripes on the same
// corpus; on a 4+-core runner the 4-stripe run should be ≥2× faster.
// TestStripedReorgEmitJSON records the same measurement to the file
// named by BENCH_JSON_OUT (CI writes BENCH_pr5.json) so the perf
// trajectory is machine-readable from here on.
package hazy

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"

	"hazy/internal/core"
	"hazy/internal/learn"
	"hazy/internal/vector"
)

const (
	stripedReorgEntities = 50_000
	stripedReorgDim      = 32
)

var (
	stripedReorgOnce sync.Once
	stripedReorgEnts []core.Entity
	stripedReorgExs  []learn.Example
)

// stripedReorgCorpus builds the 50k-entity dense corpus once per
// process.
func stripedReorgCorpus() ([]core.Entity, []learn.Example) {
	stripedReorgOnce.Do(func() {
		r := rand.New(rand.NewSource(61))
		stripedReorgEnts = make([]core.Entity, stripedReorgEntities)
		for i := range stripedReorgEnts {
			f := make([]float64, stripedReorgDim)
			for d := range f {
				f[d] = r.NormFloat64()
			}
			stripedReorgEnts[i] = core.Entity{ID: int64(i), F: vector.NewDense(f)}
		}
		stripedReorgExs = make([]learn.Example, 16)
		for i := range stripedReorgExs {
			f := make([]float64, stripedReorgDim)
			for d := range f {
				f[d] = r.NormFloat64()
			}
			stripedReorgExs[i] = learn.Example{F: vector.NewDense(f), Label: 1 - 2*(i%2)}
		}
	})
	return stripedReorgEnts, stripedReorgExs
}

// stripedReorgView builds the benched view: a Hazy-strategy, eager
// main-memory StripedView with the given stripe count (stripes=1 is
// the unstriped view).
func stripedReorgView(stripes int) (core.View, error) {
	ents, exs := stripedReorgCorpus()
	opts := core.Options{Norm: 2, SGD: learn.SGDConfig{Eta0: 0.3}, Warm: exs, Partitions: stripes}
	return core.New(core.MainMemory, core.HazyStrategy, "", 0, ents, opts)
}

// reorgLoop is the measured op: Retrain re-fits the (tiny) example
// set and re-clusters every stripe — the reorganization dominates.
func reorgLoop(b *testing.B, v core.View) {
	_, exs := stripedReorgCorpus()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v.Retrain(exs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStripedReorg(b *testing.B) {
	counts := []int{1, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		counts = append(counts, n)
	}
	for _, stripes := range counts {
		b.Run(fmt.Sprintf("stripes=%d", stripes), func(b *testing.B) {
			v, err := stripedReorgView(stripes)
			if err != nil {
				b.Fatal(err)
			}
			reorgLoop(b, v)
		})
	}
}

// TestStripedReorgEmitJSON re-runs the 1- vs 4-stripe measurement via
// testing.Benchmark and writes it as one JSON object to the path in
// BENCH_JSON_OUT. Skipped unless the env var is set (CI's bench smoke
// job sets it to BENCH_pr5.json).
func TestStripedReorgEmitJSON(t *testing.T) {
	out := os.Getenv("BENCH_JSON_OUT")
	if out == "" {
		t.Skip("set BENCH_JSON_OUT=<path> to emit the striped-reorg benchmark JSON")
	}
	measure := func(stripes int) int64 {
		v, err := stripedReorgView(stripes)
		if err != nil {
			t.Fatal(err)
		}
		res := testing.Benchmark(func(b *testing.B) { reorgLoop(b, v) })
		return res.NsPerOp()
	}
	one, four := measure(1), measure(4)
	report := map[string]any{
		"bench":            "StripedReorg",
		"entities":         stripedReorgEntities,
		"dim":              stripedReorgDim,
		"cores":            runtime.GOMAXPROCS(0),
		"stripes1_ns_op":   one,
		"stripes4_ns_op":   four,
		"speedup_4stripes": float64(one) / float64(four),
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: %s", out, data)
}
