package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"hazy/internal/core"
	"hazy/internal/dataset"
	"hazy/internal/learn"
)

// RunFig6A regenerates Figure 6(A): the hybrid's memory usage — total
// in-memory bytes (ε-map + buffer) and the ε-map alone — against the
// full data set size.
func RunFig6A(cfg Config, w io.Writer) error {
	cfg = cfg.WithDefaults()
	fmt.Fprintln(w, "Figure 6(A): Hybrid memory usage (1% buffer)")
	t := newTable("Data", "Data set size", "Total in-mem", "ε-map")
	for _, d := range datasets(cfg) {
		v, err := buildView(cfg, d, core.HybridArch, core.HazyStrategy, core.Eager,
			"fig6a-"+d.Spec.Name)
		if err != nil {
			return err
		}
		st := v.Stats()
		ds := d.Stats()
		t.add(d.Spec.Name, fmtBytes(ds.SizeBytes),
			fmtBytes(st.EpsMapBytes+st.BufferBytes), fmtBytes(st.EpsMapBytes))
		closeView(v)
	}
	t.write(w)
	fmt.Fprintln(w, "  paper: FC 10.4MB total / 6.7MB ε-map · DB 1.6/1.4MB · CS 13.7/5.4MB")
	fmt.Fprintln(w, "         (CS data set 1.3GB vs 5.4MB ε-map: 245x smaller)")
	return nil
}

// RunFig6B regenerates Figure 6(B): Single Entity read rate as the
// hybrid buffer grows, for models with ~1%, ~10%, and ~50% of tuples
// between low and high water (S1/S10/S50).
func RunFig6B(cfg Config, w io.Writer) error {
	cfg = cfg.WithDefaults()
	fmt.Fprintln(w, "Figure 6(B): Single Entity reads vs hybrid buffer size (DB-like)")
	d := dataset.Generate(dataset.DBLife.Scale(cfg.Scale))
	bufSizes := []float64{0.005, 0.01, 0.05, 0.10, 0.20, 0.50, 1.0}
	bandTargets := []struct {
		label string
		frac  float64
	}{{"S1", 0.01}, {"S10", 0.10}, {"S50", 0.50}}

	header := []string{"Model"}
	for _, b := range bufSizes {
		header = append(header, fmt.Sprintf("%g%%", b*100))
	}
	// One warm stream and one drift stream shared by every cell, so
	// the model trajectory (and hence the band) is identical across
	// buffer sizes; only the buffer capacity varies.
	warm := d.Stream(cfg.Warm / 4)
	drift := d.Stream(8000)
	t := newTable(header...)
	for _, target := range bandTargets {
		row := []string{target.label}
		for _, buf := range bufSizes {
			opts := core.Options{
				Mode:       core.Eager,
				Norm:       normFor(d),
				SGD:        driftSGD,
				Warm:       warm,
				BufferFrac: buf,
				// Huge α so Skiing does not reorganize while we widen
				// the band to the target fraction.
				Alpha: 1e12,
			}
			v, err := core.NewStripedHybrid(
				fmt.Sprintf("%s/fig6b-%s-%g", cfg.Dir, target.label, buf),
				cfg.PoolPages, d.Entities, 1, opts)
			if err != nil {
				return err
			}
			// Drift the model until the band holds the target
			// fraction of tuples.
			n := len(d.Entities)
			for _, ex := range drift {
				if err := v.Update(ex.F, ex.Label); err != nil {
					return err
				}
				if v.Stats().BandTuples >= int(target.frac*float64(n)) {
					break
				}
			}
			r := rand.New(rand.NewSource(7))
			reads := cfg.Reads
			e0, b0, d0 := v.Hits()
			start := time.Now()
			for i := 0; i < reads; i++ {
				if _, err := v.Label(int64(r.Intn(n))); err != nil {
					return err
				}
			}
			elapsed := time.Since(start)
			e1, b1, d1 := v.Hits()
			memHits := (e1 - e0) + (b1 - b0)
			diskHits := d1 - d0
			row = append(row, fmt.Sprintf("%s (%.0f%%)",
				fmtRate(rate(reads, elapsed)),
				100*float64(memHits)/float64(memHits+diskHits)))
			closeView(v)
		}
		t.add(row...)
	}
	t.write(w)
	fmt.Fprintln(w, "  cells: reads/s (fraction of reads served from memory: ε-map or buffer)")
	fmt.Fprintln(w, "  paper: read rate approaches Hazy-MM once the buffer exceeds the band fraction;")
	fmt.Fprintln(w, "         S50 needs ~50% buffered, S1 is near-MM already at 1%. Our on-disk path")
	fmt.Fprintln(w, "         sits behind a warm buffer pool, so the memory-hit fraction carries the")
	fmt.Fprintln(w, "         shape more faithfully than wall-clock here.")
	return nil
}

// RunFig10 regenerates Figure 10: quality and training time of the
// batch SVM baseline (stand-in for SVMLight) versus incremental SGD
// (file) versus SGD driving a maintained Hazy view.
func RunFig10(cfg Config, w io.Writer) error {
	cfg = cfg.WithDefaults()
	fmt.Fprintln(w, "Figure 10: Batch SVM vs SGD (file) vs SGD+Hazy view, 90/10 split")
	t := newTable("Data set", "Batch P/R", "Batch time", "SGD P/R", "SGD time", "Hazy time")
	specs := []dataset.Spec{
		dataset.Magic.Scale(cfg.Scale),
		dataset.Adult.Scale(cfg.Scale),
		dataset.Forest.Scale(cfg.Scale),
	}
	for _, spec := range specs {
		d := dataset.Generate(spec)
		all := d.LabeledEntities()
		split := len(all) * 9 / 10
		train, test := all[:split], all[split:]

		bStart := time.Now()
		bm, _ := learn.BatchSVM{MaxIter: 120}.Fit(train)
		bTime := time.Since(bStart)
		bMet := learn.Evaluate(bm, test)

		sStart := time.Now()
		sgd := learn.NewSGD(learn.SGDConfig{Eta0: 0.5})
		for pass := 0; pass < 3; pass++ {
			for _, ex := range train {
				sgd.Train(ex.F, ex.Label)
			}
		}
		sTime := time.Since(sStart)
		sMet := learn.Evaluate(sgd.Model(), test)

		// Hazy: the same updates but driving a maintained MM view
		// (the paper's "Hazy" column measures the view-maintenance
		// overhead on top of raw SGD).
		ents := make([]core.Entity, len(train))
		for i, ex := range train {
			ents[i] = core.Entity{ID: int64(i), F: ex.F}
		}
		v, err := core.NewStriped(ents, 1, core.Options{
			Mode: core.Eager, Norm: normFor(d), SGD: benchSGD,
		})
		if err != nil {
			return err
		}
		hStart := time.Now()
		for pass := 0; pass < 3; pass++ {
			for _, ex := range train {
				if err := v.Update(ex.F, ex.Label); err != nil {
					return err
				}
			}
		}
		hTime := time.Since(hStart)

		t.add(spec.Name,
			fmt.Sprintf("%.1f/%.1f", bMet.Precision()*100, bMet.Recall()*100),
			bTime.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1f/%.1f", sMet.Precision()*100, sMet.Recall()*100),
			sTime.Round(time.Millisecond).String(),
			hTime.Round(time.Millisecond).String())
	}
	t.write(w)
	fmt.Fprintln(w, "  paper: SVMLight MAGIC 74.4/63.4 in 9.4s vs SGD 74.1/62.3 in 0.3s (Hazy 0.7s);")
	fmt.Fprintln(w, "         batch is 10-100x slower at comparable quality; Hazy adds modest overhead.")
	return nil
}

// RunFig11A regenerates Figure 11(A): eager update throughput as the
// data grows (three sizes; the paper's MM line dies at 4GB when RAM
// is exhausted — noted, not reproduced).
func RunFig11A(cfg Config, w io.Writer) error {
	cfg = cfg.WithDefaults()
	fmt.Fprintln(w, "Figure 11(A): Scalability — eager updates/s vs data size (CS-like)")
	sizes := []float64{0.5, 1, 2}
	header := []string{"Technique"}
	for _, s := range sizes {
		header = append(header, fmt.Sprintf("%gx", s))
	}
	t := newTable(header...)
	for _, tech := range fig4Techniques {
		row := []string{tech.Label}
		for _, s := range sizes {
			d := dataset.Generate(dataset.Citeseer.Scale(cfg.Scale * s))
			v, err := buildView(cfg, d, tech.Arch, tech.Strat, core.Eager,
				fmt.Sprintf("fig11a-%s-%g", tech.Label, s))
			if err != nil {
				return err
			}
			updates := cfg.Updates / 3
			stream := d.Stream(updates)
			start := time.Now()
			for _, ex := range stream {
				if err := v.Update(ex.F, ex.Label); err != nil {
					return err
				}
			}
			row = append(row, fmtRate(rate(updates, time.Since(start))))
			closeView(v)
		}
		t.add(row...)
	}
	t.write(w)
	fmt.Fprintln(w, "  paper: ordering Hazy-MM > Naive-MM ≈ Hazy-OD > Hybrid > Naive-OD, all")
	fmt.Fprintln(w, "         degrading ~linearly with size; Naive/Hazy-MM exhaust RAM at 4GB.")
	return nil
}

// RunFig11B regenerates Figure 11(B): Single Entity read scale-up
// with reader threads on the main-memory architecture (reads are
// lock-free on the immutable snapshot, §C.2).
func RunFig11B(cfg Config, w io.Writer) error {
	cfg = cfg.WithDefaults()
	fmt.Fprintln(w, "Figure 11(B): Scale-up — MM Single Entity reads/s vs threads")
	d := dataset.Generate(dataset.Forest.Scale(cfg.Scale))
	v, err := buildView(cfg, d, core.MainMemory, core.HazyStrategy, core.Eager, "fig11b")
	if err != nil {
		return err
	}
	for _, ex := range d.Stream(100) {
		if err := v.Update(ex.F, ex.Label); err != nil {
			return err
		}
	}
	t := newTable("Threads", "Reads/s")
	n := len(d.Entities)
	// In-memory reads are tens of nanoseconds each; give every thread
	// enough work that goroutine startup cost disappears.
	total := cfg.Reads * 100
	for _, threads := range []int{1, 2, 4, 8, 16, 32} {
		perThread := total / threads
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < threads; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed))
				for i := 0; i < perThread; i++ {
					v.Label(int64(r.Intn(n))) //nolint:errcheck — ids are valid
				}
			}(int64(g))
		}
		wg.Wait()
		t.add(fmt.Sprintf("%d", threads), fmtRate(rate(perThread*threads, time.Since(start))))
	}
	t.write(w)
	fmt.Fprintln(w, "  paper: peaks at 42.7k reads/s with 16 threads on 8 cores.")
	return nil
}
