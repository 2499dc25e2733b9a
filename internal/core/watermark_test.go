package core

import (
	"math"
	"testing"

	"hazy/internal/learn"
	"hazy/internal/vector"
)

// TestObserveEntityRescalesBand is the regression for the stale-band
// bug: ObserveEntity used to widen M while leaving the accumulated
// [lw, hw] extrema computed under the smaller bound, so a high-norm
// insert could pass Test as "certain" with a band that never covered
// its drift. After widening, the band must still satisfy Eq. (2)
// under the new M for every model observed so far:
// hw ≥ M'·‖w_l − w_s‖_p + (b_l − b_s) and symmetrically for lw.
func TestObserveEntityRescalesBand(t *testing.T) {
	w := NewWatermark(math.Inf(1)) // q = 1
	stored := &learn.Model{W: []float64{1, 0}, B: 0}
	w.Reset(stored, 1) // corpus constant M = 1 so far
	cur := &learn.Model{W: []float64{1, -1}, B: 0}
	w.Observe(cur) // drift ‖Δw‖_∞ = 1 → band [−1, 1]

	// A high-norm entity arrives: ‖f‖₁ = 4.5 ≫ M. Its stored eps (2)
	// clears the stale high water (1), but the observed model labels
	// it negative: 2 − 2.5 < 0.
	f := vector.NewDense([]float64{2, 2.5})
	eps := w.Eps(f)
	if eps <= 1 {
		t.Fatalf("test setup: eps = %g, want > stale hw 1", eps)
	}
	if cur.Predict(f) != -1 {
		t.Fatalf("test setup: observed model should predict -1")
	}
	w.ObserveEntity(f)

	// The widened band must cover the observed model's drift under the
	// new M — the sufficient condition of Lemma 3.1, re-derived.
	lw, hw := w.Band()
	drift := w.M * cur.DiffNorm(stored, w.P)
	db := cur.B - stored.B
	if hw < drift+db {
		t.Fatalf("hw = %g fails to cover M'·drift + db = %g after widening", hw, drift+db)
	}
	if lw > -drift+db {
		t.Fatalf("lw = %g fails to cover −M'·drift + db = %g after widening", lw, -drift+db)
	}
	// In particular the new entity may no longer test certain-positive.
	if label, certain := w.Test(eps); certain && label != cur.Predict(f) {
		t.Fatalf("Test(%g) = (%d, certain) contradicts the observed model's %d", eps, label, cur.Predict(f))
	}
}

// TestObserveEntityZeroMBandWidensToUncertain pins the degenerate
// path: extrema accumulated while M = 0 carry no drift term to
// rescale, so widening M must make the whole band uncertain rather
// than trust b-only extrema.
func TestObserveEntityZeroMBandWidensToUncertain(t *testing.T) {
	w := NewWatermark(math.Inf(1))
	w.Reset(&learn.Model{W: []float64{1}, B: 0}, 0)
	w.Observe(&learn.Model{W: []float64{5}, B: -1}) // drift term 0·4, db = −1 → band [−1, 0]
	w.ObserveEntity(vector.NewDense([]float64{3}))
	if _, certain := w.Test(2); certain {
		t.Fatal("band accumulated under M = 0 must become fully uncertain after widening")
	}
}

// TestLazyInsertHighNormEntity pins the read contract end to end: a
// lazy Hazy-MM view whose model has drifted since the last
// reorganization receives a high-norm insert engineered to sit above
// the pre-insert high water while the current model calls it
// negative. Label must agree with the current model. (The view's
// insert path observes the current model after widening M, so this
// holds as long as ObserveEntity and Observe stay sound together —
// the rescale keeps Watermark's "every model since s" contract true
// on its own, which TestObserveEntityRescalesBand checks directly.)
func TestLazyInsertHighNormEntity(t *testing.T) {
	// Small-norm corpus, warm model along dim 0, then drift in dim 1.
	entities := make([]Entity, 10)
	for i := range entities {
		entities[i] = Entity{ID: int64(i), F: vector.NewDense([]float64{0.1, 0.05})}
	}
	warm := make([]learn.Example, 8)
	for i := range warm {
		warm[i] = learn.Example{F: vector.NewDense([]float64{1, 0}), Label: 1}
	}
	v, err := NewStriped(entities, 1, Options{
		Mode: Lazy, Norm: math.Inf(1), SGD: learn.SGDConfig{Eta0: 0.5}, Warm: warm,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := v.Update(vector.NewDense([]float64{0, 1}), -1); err != nil {
			t.Fatal(err)
		}
	}
	wm := v.stripes[0].wm
	stored, cur := wm.Stored(), v.trainer.Model()
	_, hw := wm.Band()
	if stored.W[0] <= 0 || cur.W[1] >= 0 || hw <= 0 {
		t.Fatalf("test setup: stored.W=%v cur.W=%v hw=%g", stored.W, cur.W, hw)
	}
	// Solve for a feature vector whose stored eps clears hw while the
	// current model predicts −1.
	a := (hw + stored.B + 1) / stored.W[0]
	b := (a*cur.W[0] - cur.B + 1) / -cur.W[1]
	f := vector.NewDense([]float64{a, b})
	if wm.Eps(f) <= hw || cur.Predict(f) != -1 {
		t.Fatalf("test setup: eps=%g hw=%g predict=%d", wm.Eps(f), hw, cur.Predict(f))
	}
	if err := v.Insert(Entity{ID: 99, F: f}); err != nil {
		t.Fatal(err)
	}
	want := v.trainer.Model().Predict(f)
	got, err := v.Label(99)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("lazy Label(99) = %d after high-norm insert, but the current model says %d (stale band)", got, want)
	}
}
