package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"hazy/internal/core"
	"hazy/internal/dataset"
	"hazy/internal/feature"
	"hazy/internal/learn"
	"hazy/internal/multiclass"
	"hazy/internal/skiing"
)

// RunFig12A regenerates Figure 12(A): lazy All Members throughput as
// the feature length grows, using random Fourier features
// (App. B.5.3) to scale a dense base data set from 300 to 1500
// dimensions — naive vs Hazy, main-memory and on-disk.
func RunFig12A(cfg Config, w io.Writer) error {
	cfg = cfg.WithDefaults()
	fmt.Fprintln(w, "Figure 12(A): Lazy All Members reads/s vs feature length (random features)")
	lengths := []int{300, 600, 900, 1200, 1500}
	base := dataset.Generate(dataset.Forest.Scale(cfg.Scale * 0.3))
	techs := []technique{
		{"Naive-OD", core.OnDisk, core.Naive},
		{"Naive-MM", core.MainMemory, core.Naive},
		{"Hazy-OD", core.OnDisk, core.HazyStrategy},
		{"Hazy-MM", core.MainMemory, core.HazyStrategy},
	}
	header := []string{"Technique"}
	for _, l := range lengths {
		header = append(header, fmt.Sprintf("%d", l))
	}
	t := newTable(header...)
	for _, tech := range techs {
		row := []string{tech.Label}
		for _, length := range lengths {
			rff := feature.NewRFF(feature.Gaussian, base.Spec.Features, length, 1.0, 42)
			ents := make([]core.Entity, len(base.Entities))
			for i, e := range base.Entities {
				ents[i] = core.Entity{ID: e.ID, F: rff.Transform(e.F)}
			}
			warm := make([]learn.Example, cfg.Warm/2)
			for i := range warm {
				ex := base.Example()
				warm[i] = learn.Example{F: rff.Transform(ex.F), Label: ex.Label}
			}
			opts := core.Options{
				Mode: core.Lazy,
				Norm: 2,
				SGD:  benchSGD,
				Warm: warm,
			}
			v, err := core.New(tech.Arch, tech.Strat,
				fmt.Sprintf("%s/fig12a-%s-%d", cfg.Dir, tech.Label, length),
				cfg.PoolPages, ents, opts)
			if err != nil {
				return err
			}
			// A short drift burst so the lazy structures see real
			// watermark movement before the measured scans.
			for i := 0; i < 30; i++ {
				ex := base.Example()
				if err := v.Update(rff.Transform(ex.F), ex.Label); err != nil {
					return err
				}
			}
			scans := 30
			start := time.Now()
			for i := 0; i < scans; i++ {
				if _, err := v.CountMembers(); err != nil {
					return err
				}
			}
			row = append(row, fmtRate(rate(scans, time.Since(start))))
			closeView(v)
		}
		t.add(row...)
	}
	t.write(w)
	fmt.Fprintln(w, "  paper: Hazy's advantage grows with feature length — it avoids the")
	fmt.Fprintln(w, "         dot products that dominate as vectors lengthen.")
	return nil
}

// RunFig12B regenerates Figure 12(B): eager multiclass update
// throughput vs number of labels, Naive-MM vs Hazy-MM, on the
// Forest-like multiclass set with classes coalesced down to k.
func RunFig12B(cfg Config, w io.Writer) error {
	cfg = cfg.WithDefaults()
	fmt.Fprintln(w, "Figure 12(B): Multiclass eager updates/s vs # labels (FC-like)")
	d := dataset.Generate(dataset.Forest.Scale(cfg.Scale * 0.5))
	ids := make([]int64, len(d.Entities))
	for i, e := range d.Entities {
		ids[i] = e.ID
	}
	t := newTable("# Labels", "Naive-MM", "Hazy-MM")
	for _, k := range []int{2, 3, 4, 5, 6, 7} {
		row := []string{fmt.Sprintf("%d", k)}
		for _, strat := range []core.Strategy{core.Naive, core.HazyStrategy} {
			mc, err := multiclass.New(k, ids, func(int) (core.View, error) {
				return core.New(core.MainMemory, strat, "", 0, d.Entities, core.Options{
					Mode: core.Eager, Norm: 2,
					SGD:  benchSGD,
					Warm: d.Stream(cfg.Warm / 4),
				})
			})
			if err != nil {
				return err
			}
			updates := cfg.Updates / 3
			start := time.Now()
			for i := 0; i < updates; i++ {
				f, cls := d.MulticlassExample()
				if err := mc.Update(f, cls%k); err != nil {
					return err
				}
			}
			row = append(row, fmtRate(rate(updates, time.Since(start))))
		}
		t.add(row...)
	}
	t.write(w)
	fmt.Fprintln(w, "  paper: Hazy-MM holds an order-of-magnitude lead over Naive-MM at every")
	fmt.Fprintln(w, "         label count; both decline ~linearly in the number of labels.")
	return nil
}

// RunFig13 regenerates Figure 13: the number of tuples between low
// and high water as updates accumulate on a warm model, for
// Forest-like and DBLife-like data.
func RunFig13(cfg Config, w io.Writer) error {
	cfg = cfg.WithDefaults()
	fmt.Fprintln(w, "Figure 13: tuples between low and high water vs # updates (warm model)")
	for _, spec := range []dataset.Spec{dataset.Forest, dataset.DBLife} {
		d := dataset.Generate(spec.Scale(cfg.Scale))
		v, err := core.NewStriped(d.Entities, 1, core.Options{
			Mode: core.Eager, Norm: normFor(d),
			SGD:  driftSGD,
			Warm: d.Stream(cfg.Warm / 2),
		})
		if err != nil {
			return err
		}
		t := newTable("# Updates", "Band tuples", "Fraction", "Reorgs")
		steps := []int{0, 250, 500, 1000, 1500, 2000}
		done := 0
		for _, target := range steps {
			for done < target {
				ex := d.Example()
				if err := v.Update(ex.F, ex.Label); err != nil {
					return err
				}
				done++
			}
			st := v.Stats()
			t.add(fmt.Sprintf("%d", target), fmt.Sprintf("%d", st.BandTuples),
				fmt.Sprintf("%.1f%%", 100*float64(st.BandTuples)/float64(len(d.Entities))),
				fmt.Sprintf("%d", st.Reorgs))
		}
		fmt.Fprintf(w, " %s (%d entities):\n", d.Spec.Name, len(d.Entities))
		t.write(w)
	}
	fmt.Fprintln(w, "  paper: in steady state ~1% of tuples sit between low and high water")
	fmt.Fprintln(w, "         (e.g. DBLife: 4811 of 122k).")
	return nil
}

// RunSkiing empirically validates Lemma 3.2 / Theorem 3.3: the
// measured competitive ratio of Skiing on random monotone drift
// instances stays below 1+α+σ, approaching 2 as σ→0.
func RunSkiing(cfg Config, w io.Writer) error {
	cfg = cfg.WithDefaults()
	fmt.Fprintln(w, "Skiing competitive ratio vs exact OPT (random drift instances)")
	t := newTable("σ", "α*", "bound 1+α+σ", "worst measured", "mean measured")
	r := rand.New(rand.NewSource(1))
	for _, sigma := range []float64{0.01, 0.1, 0.5, 1.0} {
		alpha := skiing.AlphaFor(sigma)
		const S = 10.0
		var worst, sum float64
		const trials = 30
		for trial := 0; trial < trials; trial++ {
			n := 60 + r.Intn(60)
			drift := make([]float64, n)
			for i := range drift {
				if r.Float64() < 0.3 {
					drift[i] = r.Float64() * sigma * S / 2
				}
			}
			costs := skiing.DriftCosts{Drift: drift, Scale: 1, S: sigma * S}
			ratio := skiing.Ratio(alpha, S, costs)
			sum += ratio
			if ratio > worst {
				worst = ratio
			}
		}
		t.add(fmt.Sprintf("%.2f", sigma), fmt.Sprintf("%.3f", alpha),
			fmt.Sprintf("%.3f", skiing.BoundFor(sigma)),
			fmt.Sprintf("%.3f", worst), fmt.Sprintf("%.3f", sum/trials))
	}
	t.write(w)
	fmt.Fprintln(w, "  paper: ρ(Skiing) = 1+α+σ is optimal among deterministic online")
	fmt.Fprintln(w, "         strategies and → 2 as data grows (σ → 0).")
	return nil
}

// RunAblation compares the Skiing policy against the ski-rental
// endpoints it interpolates between — never reorganizing (incremental
// steps over an ever-widening band) and reorganizing every round
// (paying the sort each update). DESIGN.md lists this as the design
// ablation for the paper's central mechanism.
func RunAblation(cfg Config, w io.Writer) error {
	cfg = cfg.WithDefaults()
	fmt.Fprintln(w, "Ablation: reorganization policy — eager Hazy-MM updates/s (DB-like)")
	d := dataset.Generate(dataset.DBLife.Scale(cfg.Scale))
	t := newTable("Policy", "Updates/s", "Reorgs", "Band at end")
	warm := d.Stream(cfg.Warm / 4)
	drift := d.Stream(cfg.Updates * 4)
	for _, p := range []core.ReorgPolicy{core.ReorgSkiing, core.ReorgNever, core.ReorgAlways} {
		v, err := core.NewStriped(d.Entities, 1, core.Options{
			Mode: core.Eager, Norm: normFor(d), Reorg: p,
			SGD:  driftSGD,
			Warm: warm,
		})
		if err != nil {
			return err
		}
		start := time.Now()
		for _, ex := range drift {
			if err := v.Update(ex.F, ex.Label); err != nil {
				return err
			}
		}
		elapsed := time.Since(start)
		st := v.Stats()
		t.add(p.String(), fmtRate(rate(len(drift), elapsed)),
			fmt.Sprintf("%d", st.Reorgs), fmt.Sprintf("%d", st.BandTuples))
	}
	t.write(w)
	fmt.Fprintln(w, "  expectation: Skiing ≥ both endpoints (ski-rental; Thm 3.3 bounds its")
	fmt.Fprintln(w, "  waste at 2x OPT, while either endpoint can be arbitrarily bad).")
	return nil
}

// RunAlpha regenerates the App. C.2 α-sensitivity experiment: eager
// Hazy-MM update throughput as the Skiing parameter varies.
func RunAlpha(cfg Config, w io.Writer) error {
	cfg = cfg.WithDefaults()
	fmt.Fprintln(w, "App. C.2: α-sensitivity — eager Hazy-MM updates/s (DB-like)")
	d := dataset.Generate(dataset.DBLife.Scale(cfg.Scale))
	t := newTable("α", "Updates/s", "Reorgs")
	for _, alpha := range []float64{0.25, 0.5, 1, 2, 4} {
		v, err := core.NewStriped(d.Entities, 1, core.Options{
			Mode: core.Eager, Norm: normFor(d), Alpha: alpha,
			SGD:  driftSGD,
			Warm: d.Stream(cfg.Warm / 4),
		})
		if err != nil {
			return err
		}
		updates := cfg.Updates * 2
		start := time.Now()
		for i := 0; i < updates; i++ {
			ex := d.Example()
			if err := v.Update(ex.F, ex.Label); err != nil {
				return err
			}
		}
		elapsed := time.Since(start)
		t.add(fmt.Sprintf("%.2f", alpha), fmtRate(rate(updates, elapsed)),
			fmt.Sprintf("%d", v.Stats().Reorgs))
	}
	t.write(w)
	fmt.Fprintln(w, "  paper: tuning α buys ~10% over the default α=1.")
	return nil
}
