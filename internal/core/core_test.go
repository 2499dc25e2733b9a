package core

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"hazy/internal/learn"
	"hazy/internal/vector"
)

// testEntities builds n entities with dense 2-D features in [0,2)².
func testEntities(r *rand.Rand, n int) []Entity {
	out := make([]Entity, n)
	for i := range out {
		out[i] = Entity{
			ID: int64(i),
			F:  vector.NewDense([]float64{r.Float64() * 2, r.Float64() * 2}),
		}
	}
	return out
}

// trainingStream produces examples drifting around the separator
// x0 + x1 = 1.
func trainingStream(r *rand.Rand, n int) []learn.Example {
	out := make([]learn.Example, n)
	for i := range out {
		f := vector.NewDense([]float64{r.Float64() * 2, r.Float64() * 2})
		out[i] = learn.Example{F: f, Label: learn.Sign(f.Val[0] + f.Val[1] - 1)}
	}
	return out
}

// allVariants constructs every architecture × strategy × mode combo
// the factory supports, through New.
func allVariants(t *testing.T, entities []Entity, opts Options) map[string]View {
	t.Helper()
	views := map[string]View{}
	for _, mode := range []Mode{Eager, Lazy} {
		o := opts
		o.Mode = mode
		for _, c := range []struct {
			arch  Arch
			strat Strategy
		}{
			{MainMemory, Naive}, {MainMemory, HazyStrategy},
			{OnDisk, Naive}, {OnDisk, HazyStrategy},
			{HybridArch, HazyStrategy},
		} {
			name := fmt.Sprintf("%s/%s/%s", c.arch, c.strat, mode)
			v, err := New(c.arch, c.strat, filepath.Join(t.TempDir(), name), 64, entities, o)
			if err != nil {
				t.Fatal(err)
			}
			views[name] = v
		}
	}
	return views
}

func sortedIDs(ids []int64) []int64 {
	out := append([]int64(nil), ids...)
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// TestAllVariantsAgree is the golden invariant: after every update,
// all ten variants (architecture × strategy × mode; every Hazy
// variant is a one-stripe StripedView) report identical labels for every entity
// and identical member sets — and they match an oracle that
// classifies from scratch with the current model.
func TestAllVariantsAgree(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	entities := testEntities(r, 300)
	stream := trainingStream(r, 120)
	opts := Options{Norm: math.Inf(1), SGD: learn.SGDConfig{Eta0: 0.3}}
	views := allVariants(t, entities, opts)

	names := make([]string, 0, len(views))
	for n := range views {
		names = append(names, n)
	}
	sort.Strings(names)

	for step, ex := range stream {
		for _, n := range names {
			if err := views[n].Update(ex.F, ex.Label); err != nil {
				t.Fatalf("step %d %s: %v", step, n, err)
			}
		}
		if step%10 != 9 {
			continue
		}
		// Oracle: classify every entity with the reference model.
		oracle := views[names[0]].Model()
		wantMembers := []int64{}
		for _, e := range entities {
			if oracle.Predict(e.F) > 0 {
				wantMembers = append(wantMembers, e.ID)
			}
		}
		for _, n := range names {
			v := views[n]
			// Models must be identical across variants (same trainer,
			// same sequence).
			if got := v.Model(); got.B != oracle.B {
				t.Fatalf("step %d %s: model bias %v vs %v", step, n, got.B, oracle.B)
			}
			members, err := v.Members()
			if err != nil {
				t.Fatalf("step %d %s members: %v", step, n, err)
			}
			got := sortedIDs(members)
			if len(got) != len(wantMembers) {
				t.Fatalf("step %d %s: %d members, oracle %d", step, n, len(got), len(wantMembers))
			}
			for i := range got {
				if got[i] != wantMembers[i] {
					t.Fatalf("step %d %s: member %d is %d, oracle %d", step, n, i, got[i], wantMembers[i])
				}
			}
			cnt, err := v.CountMembers()
			if err != nil || cnt != len(wantMembers) {
				t.Fatalf("step %d %s: count %d err %v", step, n, cnt, err)
			}
			// Spot-check single-entity reads.
			for trial := 0; trial < 20; trial++ {
				id := int64(r.Intn(len(entities)))
				want := oracle.Predict(entities[id].F)
				gotL, err := v.Label(id)
				if err != nil {
					t.Fatalf("step %d %s label(%d): %v", step, n, id, err)
				}
				if gotL != want {
					t.Fatalf("step %d %s: label(%d)=%d oracle %d", step, n, id, gotL, want)
				}
			}
		}
	}
}

// TestWatermarkSoundness is the Lemma 3.1 property: at any round,
// every tuple above high water is positive under the current model
// and every tuple below low water negative.
func TestWatermarkSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, p := range []float64{1, 2, math.Inf(1)} {
		entities := testEntities(r, 200)
		wm := NewWatermark(p)
		trainer := learn.NewSGD(learn.SGDConfig{Eta0: 0.3})
		q := wm.Q()
		var m float64
		for _, e := range entities {
			if n := e.F.Norm(q); n > m {
				m = n
			}
		}
		wm.Reset(trainer.Model(), m)
		eps := make([]float64, len(entities))
		for i, e := range entities {
			eps[i] = wm.Eps(e.F)
		}
		for step := 0; step < 300; step++ {
			f := vector.NewDense([]float64{r.Float64() * 2, r.Float64() * 2})
			trainer.Train(f, learn.Sign(f.Val[0]+f.Val[1]-1))
			lw, hw := wm.Observe(trainer.Model())
			if lw > 0 || hw < 0 {
				t.Fatalf("p=%v: band does not include 0: [%v,%v]", p, lw, hw)
			}
			cur := trainer.Model()
			for i, e := range entities {
				label, certain := wm.Test(eps[i])
				if !certain {
					continue
				}
				if got := cur.Predict(e.F); got != label {
					t.Fatalf("p=%v step %d: guarantee violated for entity %d: eps=%v band=[%v,%v] promised %d actual %d",
						p, step, e.ID, eps[i], lw, hw, label, got)
				}
			}
		}
	}
}

func TestWatermarkBandMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	wm := NewWatermark(2)
	trainer := learn.NewSGD(learn.SGDConfig{Eta0: 0.3})
	wm.Reset(trainer.Model(), 1.5)
	prevLw, prevHw := wm.Band()
	for step := 0; step < 200; step++ {
		f := vector.NewDense([]float64{r.NormFloat64(), r.NormFloat64()})
		trainer.Train(f, 1-2*(step%2))
		lw, hw := wm.Observe(trainer.Model())
		if lw > prevLw || hw < prevHw {
			t.Fatalf("band shrank: [%v,%v] → [%v,%v]", prevLw, prevHw, lw, hw)
		}
		prevLw, prevHw = lw, hw
	}
	// Reset collapses the band.
	wm.Reset(trainer.Model(), 1.5)
	lw, hw := wm.Band()
	if lw != 0 || hw != 0 {
		t.Fatalf("reset band [%v,%v]", lw, hw)
	}
}

func TestSkiingAccumulator(t *testing.T) {
	sk := NewSkiing(1)
	if sk.ShouldReorganize() {
		t.Fatal("reorg before S measured")
	}
	sk.DidReorganize(100)
	if sk.S() != 100 || sk.Reorgs() != 1 {
		t.Fatalf("S=%v reorgs=%d", sk.S(), sk.Reorgs())
	}
	sk.AddCost(60)
	if sk.ShouldReorganize() {
		t.Fatal("reorg at a=60 < αS=100")
	}
	sk.AddCost(50)
	if !sk.ShouldReorganize() {
		t.Fatal("no reorg at a=110 ≥ αS=100")
	}
	sk.DidReorganize(200)
	if sk.Accumulated() != 0 {
		t.Fatal("accumulator not reset")
	}
	if sk.IncSteps() != 2 {
		t.Fatalf("incsteps=%d", sk.IncSteps())
	}
	// α = 2 doubles the threshold.
	sk2 := NewSkiing(2)
	sk2.DidReorganize(100)
	sk2.AddCost(150)
	if sk2.ShouldReorganize() {
		t.Fatal("α=2: reorg at a=150 < 200")
	}
	sk2.AddWaste(60)
	if !sk2.ShouldReorganize() {
		t.Fatal("α=2: no reorg at a=210 ≥ 200")
	}
}

func TestInsertEntityAllVariants(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	entities := testEntities(r, 100)
	stream := trainingStream(r, 40)
	views := allVariants(t, entities, Options{SGD: learn.SGDConfig{Eta0: 0.3}})
	for _, ex := range stream[:20] {
		for _, v := range views {
			if err := v.Update(ex.F, ex.Label); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Insert new entities mid-stream.
	newcomers := []Entity{
		{ID: 1000, F: vector.NewDense([]float64{1.9, 1.9})}, // clearly positive
		{ID: 1001, F: vector.NewDense([]float64{0.05, 0.05})},
		{ID: 1002, F: vector.NewDense([]float64{0.5, 0.52})}, // near boundary
	}
	for name, v := range views {
		for _, e := range newcomers {
			if err := v.Insert(e); err != nil {
				t.Fatalf("%s insert: %v", name, err)
			}
		}
	}
	for _, ex := range stream[20:] {
		for _, v := range views {
			if err := v.Update(ex.F, ex.Label); err != nil {
				t.Fatal(err)
			}
		}
	}
	var oracle *learn.Model
	for _, v := range views {
		oracle = v.Model()
		break
	}
	for name, v := range views {
		for _, e := range newcomers {
			got, err := v.Label(e.ID)
			if err != nil {
				t.Fatalf("%s label(%d): %v", name, e.ID, err)
			}
			if want := oracle.Predict(e.F); got != want {
				t.Fatalf("%s: inserted entity %d labeled %d, oracle %d", name, e.ID, got, want)
			}
		}
		cnt, err := v.CountMembers()
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, e := range entities {
			if oracle.Predict(e.F) > 0 {
				want++
			}
		}
		for _, e := range newcomers {
			if oracle.Predict(e.F) > 0 {
				want++
			}
		}
		if cnt != want {
			t.Fatalf("%s: count %d want %d after inserts", name, cnt, want)
		}
	}
}

func TestDuplicateInsertRejected(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	entities := testEntities(r, 10)
	for name, v := range allVariants(t, entities, Options{}) {
		if err := v.Insert(Entity{ID: 5, F: vector.NewDense([]float64{1, 1})}); err == nil {
			t.Fatalf("%s: duplicate insert accepted", name)
		}
	}
}

func TestLabelUnknownEntity(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	entities := testEntities(r, 10)
	for name, v := range allVariants(t, entities, Options{}) {
		if _, err := v.Label(999); err == nil {
			t.Fatalf("%s: unknown entity labeled", name)
		}
	}
}

// TestHazyReorganizes forces many updates and checks that Skiing
// actually fires reorganizations and that the band stays small
// relative to the data (the Figure 13 claim: ~small fraction in
// steady state).
func TestHazyReorganizes(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	entities := testEntities(r, 500)
	v, err := NewStriped(entities, 1, Options{Mode: Eager, SGD: learn.SGDConfig{Eta0: 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range trainingStream(r, 3000) {
		if err := v.Update(ex.F, ex.Label); err != nil {
			t.Fatal(err)
		}
	}
	st := v.Stats()
	if st.Reorgs < 2 {
		t.Fatalf("only %d reorgs (incl. initial) after 3000 updates", st.Reorgs)
	}
	if st.Updates != 3000 {
		t.Fatalf("updates=%d", st.Updates)
	}
	if st.HighWater < 0 || st.LowWater > 0 {
		t.Fatalf("band [%v,%v]", st.LowWater, st.HighWater)
	}
}

// TestHybridHitsEpsMapMostly pins the App. B.4 hit accounting of the
// hybrid, unstriped and striped: every Label counts exactly once, the
// ε-map answers most reads, Stats reports the in-memory footprint
// (Figure 6(A)), and with every entity buffered an eager in-band read
// is answered from memory, never from disk.
func TestHybridHitsEpsMapMostly(t *testing.T) {
	for _, p := range []int{1, 4} {
		for _, frac := range []float64{0.05, 1} {
			t.Run(fmt.Sprintf("P%d/buffer%g", p, frac), func(t *testing.T) {
				r := rand.New(rand.NewSource(4))
				entities := testEntities(r, 400)
				v, err := New(HybridArch, HazyStrategy, t.TempDir(), 64, entities, Options{
					Mode: Eager, BufferFrac: frac, Partitions: p, SGD: learn.SGDConfig{Eta0: 0.3},
				})
				if err != nil {
					t.Fatal(err)
				}
				h := v.(*StripedView)
				defer h.Close()
				for _, ex := range trainingStream(r, 200) {
					if err := h.Update(ex.F, ex.Label); err != nil {
						t.Fatal(err)
					}
				}
				model := h.Model()
				for i := 0; i < 1000; i++ {
					id := int64(r.Intn(len(entities)))
					got, err := h.Label(id)
					if err != nil {
						t.Fatal(err)
					}
					if want := model.Predict(entities[id].F); got != want {
						t.Fatalf("Label(%d) = %d, oracle %d", id, got, want)
					}
				}
				epsHits, bufHits, diskHits := h.Hits()
				if total := epsHits + bufHits + diskHits; total != 1000 {
					t.Fatalf("hits sum %d", total)
				}
				if epsHits == 0 {
					t.Fatal("ε-map never hit")
				}
				if frac == 1 && diskHits != 0 {
					t.Fatalf("%d reads went to disk with every entity buffered", diskHits)
				}
				st := h.Stats()
				if st.EpsMapBytes != int64(len(entities))*16 {
					t.Fatalf("eps-map bytes %d", st.EpsMapBytes)
				}
				if st.BufferBytes <= 0 {
					t.Fatalf("buffer bytes %d", st.BufferBytes)
				}
			})
		}
	}
}

func TestFactory(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	entities := testEntities(r, 20)
	// Every Hazy view is a StripedView: unstriped means one stripe.
	for _, arch := range []Arch{MainMemory, OnDisk, HybridArch} {
		for _, p := range []int{0, 1} {
			v, err := New(arch, HazyStrategy, t.TempDir(), 16, entities, Options{Partitions: p})
			if err != nil {
				t.Fatalf("%v: %v", arch, err)
			}
			sv, ok := v.(*StripedView)
			if !ok || sv.Stripes() != 1 || sv.Arch() != arch {
				t.Fatalf("%s/hazy Partitions %d: %T, want a one-stripe %s *StripedView", arch, p, v, arch)
			}
			if _, err := v.CountMembers(); err != nil {
				t.Fatalf("%v count: %v", arch, err)
			}
			sv.Close()
		}
	}
	if v, err := New(MainMemory, Naive, "", 0, entities, Options{}); err != nil {
		t.Fatal(err)
	} else if _, ok := v.(*MemView); !ok {
		t.Fatalf("mm/naive: %T, want *MemView", v)
	}
	if v, err := New(OnDisk, Naive, t.TempDir(), 16, entities, Options{}); err != nil {
		t.Fatal(err)
	} else if dv, ok := v.(*DiskView); !ok {
		t.Fatalf("od/naive: %T, want *DiskView", v)
	} else {
		dv.Close()
	}
	if _, err := New(MainMemory, Naive, "", 0, entities, Options{Partitions: 2}); err == nil {
		t.Fatal("striped naive accepted")
	}
	if _, err := New(HybridArch, Naive, t.TempDir(), 16, entities, Options{}); err == nil {
		t.Fatal("hybrid+naive accepted")
	}
	if _, err := New(Arch(99), Naive, t.TempDir(), 16, entities, Options{}); err == nil {
		t.Fatal("bad arch accepted")
	}
}

func TestEnumStrings(t *testing.T) {
	if Eager.String() != "eager" || Lazy.String() != "lazy" {
		t.Fatal("mode strings")
	}
	if Naive.String() != "naive" || HazyStrategy.String() != "hazy" {
		t.Fatal("strategy strings")
	}
	if MainMemory.String() != "mm" || OnDisk.String() != "od" || HybridArch.String() != "hybrid" {
		t.Fatal("arch strings")
	}
}

// TestSparseTextLikeWorkload runs the golden agreement check on
// sparse ℓ1-normalized vectors with p=∞ (the text configuration).
func TestSparseTextLikeWorkload(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	const vocab = 200
	mk := func() vector.Vector {
		m := map[int32]float64{}
		for k := 0; k < 5+r.Intn(10); k++ {
			m[int32(r.Intn(vocab))] = 1 + float64(r.Intn(3))
		}
		v := vector.FromMap(m)
		v.L1Normalize()
		return v
	}
	entities := make([]Entity, 150)
	for i := range entities {
		entities[i] = Entity{ID: int64(i), F: mk()}
	}
	opts := Options{Norm: math.Inf(1), SGD: learn.SGDConfig{Eta0: 0.5}}
	views := allVariants(t, entities, opts)
	hidden := make([]float64, vocab)
	for i := range hidden {
		hidden[i] = r.NormFloat64()
	}
	for step := 0; step < 150; step++ {
		f := mk()
		label := learn.Sign(vector.Dot(hidden, f))
		for name, v := range views {
			if err := v.Update(f, label); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if step%25 != 24 {
			continue
		}
		var oracle *learn.Model
		var counts []int
		var names []string
		for name, v := range views {
			if oracle == nil {
				oracle = v.Model()
			}
			c, err := v.CountMembers()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			counts = append(counts, c)
			names = append(names, name)
		}
		for i := 1; i < len(counts); i++ {
			if counts[i] != counts[0] {
				t.Fatalf("step %d: %s=%d vs %s=%d", step, names[i], counts[i], names[0], counts[0])
			}
		}
	}
}
