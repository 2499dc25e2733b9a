// Benchmarks regenerating the paper's evaluation, one per table or
// figure, at laptop scale via the Go testing harness:
//
//	go test -bench=. -benchmem
//
// The cmd/hazybench tool runs the same experiments with the paper's
// table layouts and larger defaults; these benches are the
// self-contained `testing.B` versions.
package hazy

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"hazy/internal/core"
	"hazy/internal/dataset"
	"hazy/internal/exec"
	"hazy/internal/feature"
	"hazy/internal/learn"
	"hazy/internal/multiclass"
	"hazy/internal/skiing"
)

// benchScale keeps the testing.B versions quick; cmd/hazybench runs
// the full-size tables.
const benchScale = 0.08

var (
	dataCache   = map[string]*dataset.Data{}
	dataCacheMu sync.Mutex
)

func benchData(spec dataset.Spec) *dataset.Data {
	dataCacheMu.Lock()
	defer dataCacheMu.Unlock()
	key := fmt.Sprintf("%s-%d", spec.Name, spec.Entities)
	if d, ok := dataCache[key]; ok {
		return d
	}
	d := dataset.Generate(spec)
	dataCache[key] = d
	return d
}

func benchView(b *testing.B, d *dataset.Data, arch core.Arch, strat core.Strategy, mode core.Mode) core.View {
	b.Helper()
	norm := 2.0
	if !d.Spec.Dense {
		norm = 0 // defaults to ∞ in Options
	}
	v, err := core.New(arch, strat, b.TempDir(), 1024, d.Entities, core.Options{
		Mode: mode,
		Norm: norm,
		SGD:  learn.SGDConfig{Eta0: 0.5},
		Warm: d.Stream(800),
	})
	if err != nil {
		b.Fatal(err)
	}
	return v
}

var benchGrid = []struct {
	tech  string
	arch  core.Arch
	strat core.Strategy
}{
	{"OD-Naive", core.OnDisk, core.Naive},
	{"OD-Hazy", core.OnDisk, core.HazyStrategy},
	{"Hybrid", core.HybridArch, core.HazyStrategy},
	{"MM-Naive", core.MainMemory, core.Naive},
	{"MM-Hazy", core.MainMemory, core.HazyStrategy},
}

var benchSets = []dataset.Spec{dataset.Forest, dataset.DBLife, dataset.Citeseer}

// BenchmarkFig3Stats regenerates the Figure 3 statistics pass.
func BenchmarkFig3Stats(b *testing.B) {
	for _, spec := range benchSets {
		b.Run(spec.Name, func(b *testing.B) {
			d := benchData(spec.Scale(benchScale))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if st := d.Stats(); st.Entities == 0 {
					b.Fatal("empty stats")
				}
			}
		})
	}
}

// BenchmarkFig4aEagerUpdate regenerates Figure 4(A): one op = one
// training-example update against an eagerly maintained view.
func BenchmarkFig4aEagerUpdate(b *testing.B) {
	for _, g := range benchGrid {
		for _, spec := range benchSets {
			b.Run(g.tech+"/"+spec.Name, func(b *testing.B) {
				d := benchData(spec.Scale(benchScale))
				v := benchView(b, d, g.arch, g.strat, core.Eager)
				stream := d.Stream(b.N)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := v.Update(stream[i].F, stream[i].Label); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig4bLazyAllMembers regenerates Figure 4(B): one op = one
// lazy update plus one All Members count. The update keeps the model
// drifting; for the slow (naive) cells the scan dominates the op, so
// relative numbers carry the figure's shape. cmd/hazybench times the
// scans in isolation.
func BenchmarkFig4bLazyAllMembers(b *testing.B) {
	for _, g := range benchGrid {
		for _, spec := range benchSets {
			b.Run(g.tech+"/"+spec.Name, func(b *testing.B) {
				d := benchData(spec.Scale(benchScale))
				v := benchView(b, d, g.arch, g.strat, core.Lazy)
				stream := d.Stream(b.N)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := v.Update(stream[i].F, stream[i].Label); err != nil {
						b.Fatal(err)
					}
					if _, err := v.CountMembers(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig5SingleEntity regenerates Figure 5: one op = one point
// read of a random entity.
func BenchmarkFig5SingleEntity(b *testing.B) {
	archs := []struct {
		name string
		arch core.Arch
	}{{"OD", core.OnDisk}, {"Hybrid", core.HybridArch}, {"MM", core.MainMemory}}
	for _, mode := range []core.Mode{core.Eager, core.Lazy} {
		for _, a := range archs {
			b.Run(fmt.Sprintf("%s/%s", a.name, mode), func(b *testing.B) {
				d := benchData(dataset.DBLife.Scale(benchScale))
				v := benchView(b, d, a.arch, core.HazyStrategy, mode)
				for _, ex := range d.Stream(30) {
					if err := v.Update(ex.F, ex.Label); err != nil {
						b.Fatal(err)
					}
				}
				r := rand.New(rand.NewSource(1))
				n := len(d.Entities)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := v.Label(int64(r.Intn(n))); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig6bHybridBuffer regenerates Figure 6(B): point reads
// against hybrids with increasing buffer fractions.
func BenchmarkFig6bHybridBuffer(b *testing.B) {
	for _, buf := range []float64{0.01, 0.10, 0.50} {
		b.Run(fmt.Sprintf("buffer=%g%%", buf*100), func(b *testing.B) {
			d := benchData(dataset.DBLife.Scale(benchScale))
			v, err := core.NewStripedHybrid(b.TempDir(), 1024, d.Entities, 1, core.Options{
				Mode: core.Eager, SGD: learn.SGDConfig{Eta0: 0.5},
				Warm: d.Stream(800), BufferFrac: buf,
			})
			if err != nil {
				b.Fatal(err)
			}
			for _, ex := range d.Stream(100) {
				if err := v.Update(ex.F, ex.Label); err != nil {
					b.Fatal(err)
				}
			}
			r := rand.New(rand.NewSource(2))
			n := len(d.Entities)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := v.Label(int64(r.Intn(n))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig10Training regenerates Figure 10: full training runs of
// the batch baseline vs incremental SGD.
func BenchmarkFig10Training(b *testing.B) {
	d := benchData(dataset.Magic.Scale(benchScale))
	train := d.LabeledEntities()
	b.Run("BatchSVM", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			learn.BatchSVM{MaxIter: 60}.Fit(train)
		}
	})
	b.Run("SGD", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := learn.NewSGD(learn.SGDConfig{Eta0: 0.5})
			for _, ex := range train {
				s.Train(ex.F, ex.Label)
			}
		}
	})
}

// BenchmarkFig11aScalability regenerates Figure 11(A): eager Hazy-MM
// update cost at growing data sizes.
func BenchmarkFig11aScalability(b *testing.B) {
	for _, mult := range []float64{0.5, 1, 2} {
		b.Run(fmt.Sprintf("%gx", mult), func(b *testing.B) {
			d := benchData(dataset.Citeseer.Scale(benchScale * mult))
			v := benchView(b, d, core.MainMemory, core.HazyStrategy, core.Eager)
			stream := d.Stream(b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := v.Update(stream[i].F, stream[i].Label); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig11bScaleup regenerates Figure 11(B): parallel point
// reads on the main-memory architecture.
func BenchmarkFig11bScaleup(b *testing.B) {
	d := benchData(dataset.Forest.Scale(benchScale))
	v := benchView(b, d, core.MainMemory, core.HazyStrategy, core.Eager)
	for _, ex := range d.Stream(50) {
		if err := v.Update(ex.F, ex.Label); err != nil {
			b.Fatal(err)
		}
	}
	n := len(d.Entities)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		r := rand.New(rand.NewSource(3))
		for pb.Next() {
			if _, err := v.Label(int64(r.Intn(n))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// fig12aViews caches the expensive RFF-transformed view per feature
// length; the testing framework re-enters sub-benchmarks several
// times while calibrating b.N, and rebuilding the transform each time
// dominates the run.
var fig12aViews = map[int]*core.StripedView{}

// BenchmarkFig12aFeatureLength regenerates Figure 12(A): lazy All
// Members over random-Fourier-feature vectors of growing length.
func BenchmarkFig12aFeatureLength(b *testing.B) {
	base := benchData(dataset.Forest.Scale(benchScale * 0.5))
	for _, length := range []int{300, 900, 1500} {
		b.Run(fmt.Sprintf("D=%d", length), func(b *testing.B) {
			v, ok := fig12aViews[length]
			if !ok {
				rff := feature.NewRFF(feature.Gaussian, base.Spec.Features, length, 1, 42)
				ents := make([]core.Entity, len(base.Entities))
				for i, e := range base.Entities {
					ents[i] = core.Entity{ID: e.ID, F: rff.Transform(e.F)}
				}
				var err error
				v, err = core.NewStriped(ents, 1, core.Options{
					Mode: core.Lazy, Norm: 2, SGD: learn.SGDConfig{Eta0: 0.5},
				})
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; i < 30; i++ {
					ex := base.Example()
					if err := v.Update(rff.Transform(ex.F), ex.Label); err != nil {
						b.Fatal(err)
					}
				}
				fig12aViews[length] = v
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := v.CountMembers(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig12bMulticlass regenerates Figure 12(B): eager
// multiclass updates with a growing label count.
func BenchmarkFig12bMulticlass(b *testing.B) {
	d := benchData(dataset.Forest.Scale(benchScale * 0.5))
	ids := make([]int64, len(d.Entities))
	for i, e := range d.Entities {
		ids[i] = e.ID
	}
	for _, k := range []int{2, 4, 7} {
		b.Run(fmt.Sprintf("labels=%d", k), func(b *testing.B) {
			mc, err := multiclass.New(k, ids, func(int) (core.View, error) {
				return core.New(core.MainMemory, core.HazyStrategy, "", 0, d.Entities, core.Options{
					Mode: core.Eager, Norm: 2,
					SGD:  learn.SGDConfig{Eta0: 0.5},
					Warm: d.Stream(200),
				})
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, cls := d.MulticlassExample()
				if err := mc.Update(f, cls%k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig13BandMaintenance regenerates the Figure 13 machinery:
// the per-update watermark + band-reclassification work.
func BenchmarkFig13BandMaintenance(b *testing.B) {
	d := benchData(dataset.DBLife.Scale(benchScale))
	v := benchView(b, d, core.MainMemory, core.HazyStrategy, core.Eager)
	stream := d.Stream(b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v.Update(stream[i].F, stream[i].Label); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(v.Stats().BandTuples), "band-tuples")
}

// SQL read-path benchmark ---------------------------------------------

// sqlBenchEntities sizes the serving corpus the planner benches run
// against — large enough that a full scan visibly loses to the
// pushed-down plans.
const sqlBenchEntities = 50_000

var (
	sqlBenchOnce sync.Once
	sqlBenchSess *Session
	sqlBenchErr  error
)

// sqlBenchTitle is a deterministic two-topic corpus line.
func sqlBenchTitle(id int64) string {
	if id%2 == 0 {
		return fmt.Sprintf("kernel scheduler interrupt driver paging memory %d", id)
	}
	return fmt.Sprintf("relational database query optimization index transactions %d", id)
}

// sqlBenchSession lazily builds one 50k-entity engined view and keeps
// it for the whole bench process (the temp dir is left to the OS, as
// the DB must outlive every sub-benchmark).
func sqlBenchSession(b *testing.B) *Session {
	b.Helper()
	sqlBenchOnce.Do(func() {
		dir, err := os.MkdirTemp("", "hazy-sqlbench-*")
		if err != nil {
			sqlBenchErr = err
			return
		}
		db, err := Open(dir)
		if err != nil {
			sqlBenchErr = err
			return
		}
		papers, err := db.CreateEntityTable("papers", "title")
		if err != nil {
			sqlBenchErr = err
			return
		}
		feedback, err := db.CreateExampleTable("feedback")
		if err != nil {
			sqlBenchErr = err
			return
		}
		for id := int64(0); id < sqlBenchEntities; id++ {
			if err := papers.InsertText(id, sqlBenchTitle(id)); err != nil {
				sqlBenchErr = err
				return
			}
		}
		// Warm examples before declaration (one corpus pass, one
		// clustering), then a few post-declaration trains so the
		// watermark band is non-degenerate.
		for id := int64(0); id < 400; id++ {
			if err := feedback.InsertExample(id, 1-2*int(id%2)); err != nil {
				sqlBenchErr = err
				return
			}
		}
		if _, err := db.CreateClassificationView(ViewSpec{
			Name: "served", Entities: "papers", Examples: "feedback", Method: "svm",
		}); err != nil {
			sqlBenchErr = err
			return
		}
		for id := int64(400); id < 430; id++ {
			if err := feedback.InsertExample(id, 1-2*int(id%2)); err != nil {
				sqlBenchErr = err
				return
			}
		}
		if _, err := db.AttachEngine("served", EngineOptions{}); err != nil {
			sqlBenchErr = err
			return
		}
		// A second, partition-striped view over the same corpus, left
		// unmanaged so its reads exercise the live scatter-gather merge
		// scan (engined snapshots gather inside one cursor).
		if _, err := db.CreateClassificationView(ViewSpec{
			Name: "striped_served", Entities: "papers", Examples: "feedback",
			Method: "svm", Partitions: 4,
		}); err != nil {
			sqlBenchErr = err
			return
		}
		sqlBenchSess = db.NewSession()
	})
	if sqlBenchErr != nil {
		b.Fatal(sqlBenchErr)
	}
	return sqlBenchSess
}

// BenchmarkSQLReadPath compares the planner's physical plans on the
// same 50k-entity engined view: the full scan every query used to
// pay, against the pushed-down members count, eps-range index scan,
// id point read, and boundary walk. COUNT-shaped statements keep row
// rendering out of the measurement.
func BenchmarkSQLReadPath(b *testing.B) {
	cases := []struct {
		name string
		stmt string
	}{
		{"FullScan", "SELECT COUNT(*) FROM served WHERE class = -1"},
		{"MembersCount", "SELECT COUNT(*) FROM served WHERE class = 1"},
		// ±2.0 covers the whole bimodal eps distribution of this corpus,
		// so the case measures a 50k-row index scan (the historical
		// ±0.05 band was empty — it measured parse overhead only).
		{"EpsRange", "SELECT COUNT(*) FROM served WHERE eps >= -2.0 AND eps <= 2.0"},
		{"PointRead", "SELECT class FROM served WHERE id = 25000"},
		{"Uncertain", "SELECT id FROM served ORDER BY ABS(eps) LIMIT 10"},
		// The live striped view scatters the same band to 4 stripes and
		// gathers it back in (eps, id) order.
		{"StripedMerge", "SELECT COUNT(*) FROM striped_served WHERE eps >= -2.0 AND eps <= 2.0"},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			s := sqlBenchSession(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Exec(c.stmt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSQLReadPathEmitJSON measures the vectorized read path on the
// same corpus BenchmarkSQLReadPath uses and writes one JSON object to
// the path in BENCH_JSON_OUT (CI writes BENCH_readpath_ci.json and
// diffs it against the committed BENCH_pr8.json). Each scan shape
// records batched ns/op and allocs/op; the three full-band shapes
// also record their speedup over a batch size of 1 — the executor's
// row-at-a-time degenerate case — so benchdiff guards the batching
// win itself, not just absolute latency. Skipped unless the env var
// is set.
func TestSQLReadPathEmitJSON(t *testing.T) {
	out := os.Getenv("BENCH_JSON_OUT")
	if out == "" {
		t.Skip("set BENCH_JSON_OUT=<path> to emit the SQL read-path benchmark JSON")
	}
	measure := func(stmt string) (int64, int64) {
		res := testing.Benchmark(func(b *testing.B) {
			s := sqlBenchSession(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Exec(stmt); err != nil {
					b.Fatal(err)
				}
			}
		})
		return res.NsPerOp(), res.AllocsPerOp()
	}
	shapes := []struct {
		key, stmt string
		vsRow     bool // also measure at batch size 1 for a speedup key
	}{
		{"fullscan", "SELECT COUNT(*) FROM served WHERE class = -1", true},
		{"epsrange", "SELECT COUNT(*) FROM served WHERE eps >= -2.0 AND eps <= 2.0", true},
		{"stripedmerge", "SELECT COUNT(*) FROM striped_served WHERE eps >= -2.0 AND eps <= 2.0", true},
		{"pointread", "SELECT class FROM served WHERE id = 25000", false},
		{"uncertain", "SELECT id FROM served ORDER BY ABS(eps) LIMIT 10", false},
	}
	report := map[string]any{
		"bench":      "SQLReadPath",
		"entities":   sqlBenchEntities,
		"cores":      runtime.GOMAXPROCS(0),
		"batch_size": exec.BatchSize(),
	}
	for _, sh := range shapes {
		ns, allocs := measure(sh.stmt)
		report[sh.key+"_ns_op"] = ns
		report[sh.key+"_allocs_op"] = allocs
		if sh.vsRow {
			exec.SetBatchSize(1)
			rowNs, _ := measure(sh.stmt)
			exec.SetBatchSize(1024)
			report["speedup_"+sh.key+"_vs_row"] = float64(rowNs) / float64(ns)
		}
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

// BenchmarkSkiingVsOpt regenerates the Lemma 3.2 analysis: the
// Skiing simulation plus exact OPT on a drift instance.
func BenchmarkSkiingVsOpt(b *testing.B) {
	r := rand.New(rand.NewSource(4))
	drift := make([]float64, 100)
	for i := range drift {
		drift[i] = r.Float64()
	}
	costs := skiing.DriftCosts{Drift: drift, Scale: 1, S: 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ratio := skiing.Ratio(1, 10, costs); ratio <= 0 {
			b.Fatal("bad ratio")
		}
	}
}

// BenchmarkAlphaSensitivity regenerates App. C.2: eager Hazy-MM
// update cost under different Skiing α.
func BenchmarkAlphaSensitivity(b *testing.B) {
	for _, alpha := range []float64{0.5, 1, 2} {
		b.Run(fmt.Sprintf("alpha=%g", alpha), func(b *testing.B) {
			d := benchData(dataset.DBLife.Scale(benchScale))
			v, err := core.NewStriped(d.Entities, 1, core.Options{
				Mode: core.Eager, Alpha: alpha,
				SGD:  learn.SGDConfig{Eta0: 0.5},
				Warm: d.Stream(800),
			})
			if err != nil {
				b.Fatal(err)
			}
			stream := d.Stream(b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := v.Update(stream[i].F, stream[i].Label); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuildView times the §3.5.1 recompute that CREATE
// CLASSIFICATION VIEW and every reopen run: the corpus pass over 50k
// entities (statistics, then one feature vector each), warm training on
// 5k examples that reuse those vectors, and the clustering.
func BenchmarkBuildView(b *testing.B) {
	db, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	papers, err := db.CreateEntityTable("papers", "title")
	if err != nil {
		b.Fatal(err)
	}
	feedback, err := db.CreateExampleTable("feedback")
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	for id := int64(0); id < 50000; id++ {
		var t strings.Builder
		for k, n := 0, 6+r.Intn(5); k < n; k++ {
			fmt.Fprintf(&t, "t%04d ", r.Intn(r.Intn(5000)+1))
		}
		if err := papers.InsertText(id, t.String()); err != nil {
			b.Fatal(err)
		}
	}
	for id := int64(0); id < 50000; id += 10 {
		if err := feedback.InsertExample(id, 1-2*r.Intn(2)); err != nil {
			b.Fatal(err)
		}
	}
	spec := ViewSpec{Name: "v", Entities: "papers", Examples: "feedback", Method: learn.MethodSVM}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := db.buildView(spec, papers, feedback); err != nil {
			b.Fatal(err)
		}
	}
}
