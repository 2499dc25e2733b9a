package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hazy/internal/learn"
	"hazy/internal/vector"
)

// drainScan collects every row of an eps-range scan.
func drainScan(t *testing.T, v EpsIndexed, lo, hi float64) []SnapEntry {
	t.Helper()
	c, err := v.ScanEps(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var out []SnapEntry
	for {
		e, ok, cerr := c.Next()
		if cerr != nil {
			t.Fatal(cerr)
		}
		if !ok {
			return out
		}
		out = append(out, e)
	}
}

// newStripedForTest builds a 4-stripe view of the given architecture
// (disk-resident layouts under a test tempdir with a small pool).
func newStripedForTest(t *testing.T, arch Arch, entities []Entity, opts Options) *StripedView {
	t.Helper()
	var v *StripedView
	var err error
	switch arch {
	case MainMemory:
		v, err = NewStriped(entities, 4, opts)
	case OnDisk:
		v, err = NewStripedDisk(t.TempDir(), 128, entities, 4, opts)
	case HybridArch:
		v, err = NewStripedHybrid(t.TempDir(), 128, entities, 4, opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v.Close() })
	return v
}

// TestStripedEquivalence is the striping invariant, asserted for
// every physical layout: a 4-stripe StripedView — main-memory,
// on-disk, or hybrid — fed a randomized workload of update batches
// and inserts reports exactly the labels and member sets of a
// one-stripe main-memory view fed the same workload, and both match
// a from-scratch classification under the current model. The model
// is shared and exact, so neither stripe boundaries nor the storage
// layout may show through the logical contents. Checked in both modes
// and under every reorg policy (Skiing reorganizes stripes at
// timing-dependent moments, which may change per-stripe eps values
// but never labels). The vectors mix dense and sparse forms, empty
// ones, and indices past the model's dimension; one step inserts
// enough entities to fold every main-memory stripe's delta; and after
// every step each stored eps must be, bit for bit, the entity's
// activation under its stripe's stored model.
func TestStripedEquivalence(t *testing.T) {
	for _, arch := range []Arch{MainMemory, OnDisk, HybridArch} {
		for _, mode := range []Mode{Eager, Lazy} {
			for _, reorg := range []ReorgPolicy{ReorgSkiing, ReorgNever, ReorgAlways} {
				t.Run(fmt.Sprintf("%s/%s/%s", arch, mode, reorg), func(t *testing.T) {
					r := rand.New(rand.NewSource(7))
					entities := testEntities(r, 400)
					for i := range entities {
						entities[i].F = oracleVector(r)
					}
					opts := Options{Mode: mode, Reorg: reorg, Norm: math.Inf(1),
						SGD: learn.SGDConfig{Eta0: 0.3}, Warm: trainingStream(r, 20)}
					single, err := NewStriped(entities, 1, opts)
					if err != nil {
						t.Fatal(err)
					}
					striped := newStripedForTest(t, arch, entities, opts)
					feats := make(map[int64]vector.Vector, len(entities))
					for _, e := range entities {
						feats[e.ID] = e.F
					}
					nextID := int64(len(entities))
					check := func(step int) {
						t.Helper()
						model := single.Model()
						var oracle []int64
						for id, f := range feats {
							if model.Predict(f) > 0 {
								oracle = append(oracle, id)
							}
						}
						oracle = sortedIDs(oracle)
						sm, _ := single.Members()
						tm, _ := striped.Members()
						if got, want := sortedIDs(tm), sortedIDs(sm); !equalIDs(got, want) {
							t.Fatalf("step %d: members diverge: striped %d ids, single %d ids", step, len(got), len(want))
						}
						if got := sortedIDs(sm); !equalIDs(got, oracle) {
							t.Fatalf("step %d: %d members, from-scratch oracle %d", step, len(got), len(oracle))
						}
						sc, _ := single.CountMembers()
						tc, _ := striped.CountMembers()
						if sc != tc || sc != len(oracle) {
							t.Fatalf("step %d: counts diverge: striped %d, single %d, oracle %d", step, tc, sc, len(oracle))
						}
						for _, v := range []*StripedView{single, striped} {
							for id, f := range feats {
								st := v.stripes[stripeOf(id, len(v.stripes))]
								got, err := v.EpsOf(id)
								want := st.wm.Stored().Activation(f)
								if err != nil || math.Float64bits(got) != math.Float64bits(want) {
									t.Fatalf("step %d: %d stripes: EpsOf(%d) = %v (%v), stored model's activation %v",
										step, len(v.stripes), id, got, err, want)
								}
							}
						}
						for id := int64(0); id < nextID; id += 7 {
							sl, serr := single.Label(id)
							tl, terr := striped.Label(id)
							if (serr == nil) != (terr == nil) || sl != tl {
								t.Fatalf("step %d: Label(%d) diverges: striped (%d,%v) single (%d,%v)", step, id, tl, terr, sl, serr)
							}
							if oracle := model.Predict(feats[id]); sl != oracle {
								t.Fatalf("step %d: Label(%d) = %d, from-scratch oracle %d", step, id, sl, oracle)
							}
						}
					}
					insert := func(n int) {
						for ; n > 0; n-- {
							e := Entity{ID: nextID, F: oracleVector(r)}
							nextID++
							feats[e.ID] = e.F
							if err := single.Insert(e); err != nil {
								t.Fatal(err)
							}
							if err := striped.Insert(e); err != nil {
								t.Fatal(err)
							}
						}
					}
					for step := 0; step < 30; step++ {
						if step == 15 { // past maxDelta in every stripe: each delta folds
							insert(5 * maxDelta)
							check(step)
							continue
						}
						switch r.Intn(3) {
						case 0: // one update
							ex := trainingStream(r, 1)
							if err := ApplyBatch(single, ex); err != nil {
								t.Fatal(err)
							}
							if err := ApplyBatch(striped, ex); err != nil {
								t.Fatal(err)
							}
						case 1: // a batch
							exs := trainingStream(r, 1+r.Intn(16))
							if err := ApplyBatch(single, exs); err != nil {
								t.Fatal(err)
							}
							if err := ApplyBatch(striped, exs); err != nil {
								t.Fatal(err)
							}
						default: // inserts
							insert(1 + r.Intn(4))
						}
						check(step)
					}

					// Snapshots agree on the logical contents too.
					ss, err := single.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					ts, err := striped.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					if ss.CountMembers() != ts.CountMembers() || ss.Len() != ts.Len() {
						t.Fatalf("snapshots diverge: striped (%d, %d) single (%d, %d)",
							ts.Len(), ts.CountMembers(), ss.Len(), ss.CountMembers())
					}
					for id := int64(0); id < nextID; id++ {
						sl, _ := ss.Label(id)
						tl, _ := ts.Label(id)
						if sl != tl {
							t.Fatalf("snapshot Label(%d) diverges: striped %d single %d", id, tl, sl)
						}
					}
				})
			}
		}
	}
}

// oracleVector draws one entity's features for TestStripedEquivalence:
// mostly dense 2-vectors like the training stream's, plus empty vectors
// (dense and sparse), and dense and sparse vectors with components
// past the model's two weights.
func oracleVector(r *rand.Rand) vector.Vector {
	switch r.Intn(8) {
	case 0:
		return vector.Vector{}
	case 1:
		return vector.NewSparse([]int32{}, []float64{})
	case 2:
		return vector.NewDense([]float64{r.Float64() * 2, r.Float64() * 2, r.Float64()})
	case 3:
		return vector.NewSparse([]int32{1, 5, 9}, []float64{r.Float64() * 2, r.Float64(), r.Float64()})
	}
	return vector.NewDense([]float64{r.Float64() * 2, r.Float64() * 2})
}

func equalIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStripedEpsOrderMatchesUnstriped pins the physical agreement:
// under ReorgAlways every stripe's stored model equals the one-stripe
// view's, so eps values, the merged eps ordering (the ScanEps and
// snapshot streams), EpsOf, and the UNCERTAIN walk must all be
// identical to the single-stripe layout.
func TestStripedEpsOrderMatchesUnstriped(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	entities := testEntities(r, 300)
	opts := Options{Mode: Eager, Reorg: ReorgAlways, Norm: math.Inf(1),
		SGD: learn.SGDConfig{Eta0: 0.3}, Warm: trainingStream(r, 15)}
	single, err := NewStriped(entities, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	striped, err := NewStriped(entities, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range trainingStream(r, 40) {
		if err := single.Update(ex.F, ex.Label); err != nil {
			t.Fatal(err)
		}
		if err := striped.Update(ex.F, ex.Label); err != nil {
			t.Fatal(err)
		}
	}

	want := drainScan(t, single, math.Inf(-1), math.Inf(1))
	got := drainScan(t, striped, math.Inf(-1), math.Inf(1))
	if len(got) != len(want) {
		t.Fatalf("ScanEps lengths: striped %d single %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ScanEps[%d]: striped %+v single %+v", i, got[i], want[i])
		}
	}

	// A narrower band through the per-stripe scatter agrees too.
	lo, hi := want[len(want)/4].Eps, want[3*len(want)/4].Eps
	wb := drainScan(t, single, lo, hi)
	gb := drainScan(t, striped, lo, hi)
	if len(gb) != len(wb) {
		t.Fatalf("band lengths: striped %d single %d", len(gb), len(wb))
	}
	for i := range wb {
		if gb[i] != wb[i] {
			t.Fatalf("band[%d]: striped %+v single %+v", i, gb[i], wb[i])
		}
	}

	for id := int64(0); id < int64(len(entities)); id += 13 {
		se, _ := single.EpsOf(id)
		te, terr := striped.EpsOf(id)
		if terr != nil || se != te {
			t.Fatalf("EpsOf(%d): striped (%g,%v) single %g", id, te, terr, se)
		}
	}

	su, err := single.MostUncertain(25)
	if err != nil {
		t.Fatal(err)
	}
	tu, err := striped.MostUncertain(25)
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(su, tu) {
		t.Fatalf("MostUncertain diverges:\nstriped %v\nsingle  %v", tu, su)
	}

	// A snapshot scans in the merged clustered order.
	ss, _ := single.Snapshot()
	ts, _ := striped.Snapshot()
	sr := drainScan(t, ss, math.Inf(-1), math.Inf(1))
	tr := drainScan(t, ts, math.Inf(-1), math.Inf(1))
	if len(sr) != len(want) || len(tr) != len(want) {
		t.Fatalf("snapshot scans: striped %d rows, single %d, want %d", len(tr), len(sr), len(want))
	}
	for i, e := range want {
		if sr[i] != e || tr[i] != e {
			t.Fatalf("snapshot row %d: striped %+v single %+v, live %+v", i, tr[i], sr[i], e)
		}
	}
}

// TestStripedInsertBatch exercises the scatter-gather insert path:
// positional errors for duplicates, everything else applied and
// readable.
func TestStripedInsertBatch(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	entities := testEntities(r, 64)
	v, err := NewStriped(entities, 4, Options{Norm: math.Inf(1), SGD: learn.SGDConfig{Eta0: 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	batch := []Entity{
		{ID: 100, F: vector.NewDense([]float64{1, 0})},
		{ID: 5, F: vector.NewDense([]float64{0, 1})}, // duplicate of a seed entity
		{ID: 101, F: vector.NewDense([]float64{0.5, 0.5})},
		{ID: 100, F: vector.NewDense([]float64{0, 0})}, // duplicate within the batch
	}
	errs := v.InsertBatch(batch)
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("fresh inserts failed: %v %v", errs[0], errs[2])
	}
	if errs[1] == nil || errs[3] == nil {
		t.Fatalf("duplicates not rejected: %v %v", errs[1], errs[3])
	}
	for _, id := range []int64{100, 101} {
		if _, err := v.Label(id); err != nil {
			t.Fatalf("Label(%d) after InsertBatch: %v", id, err)
		}
	}
	if n, _ := v.CountMembers(); n < 0 || n > 64+2 {
		t.Fatalf("CountMembers = %d out of range", n)
	}
}

// TestStripedStats sanity-checks the aggregated counters.
func TestStripedStats(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	v, err := NewStriped(testEntities(r, 128), 4, Options{
		Norm: math.Inf(1), Reorg: ReorgAlways, SGD: learn.SGDConfig{Eta0: 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range trainingStream(r, 10) {
		if err := v.Update(ex.F, ex.Label); err != nil {
			t.Fatal(err)
		}
	}
	s := v.Stats()
	if s.Updates != 10 {
		t.Fatalf("Updates = %d, want 10", s.Updates)
	}
	// Initial clustering + 10 ReorgAlways rounds, per stripe.
	if want := 4 * 11; s.Reorgs != want {
		t.Fatalf("Reorgs = %d, want %d", s.Reorgs, want)
	}
}

// TestStripedLazyRespectsReorgNever pins the policy guard on the lazy
// read path: waste accrues on Members reads, but only the Skiing
// policy may spend it — ReorgNever stripes cluster once at build time
// and never again, exactly like the unstriped layouts.
func TestStripedLazyRespectsReorgNever(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	v, err := NewStriped(testEntities(r, 100), 4, Options{
		Mode: Lazy, Reorg: ReorgNever, Alpha: 1e-9,
		Norm: math.Inf(1), SGD: learn.SGDConfig{Eta0: 0.5}, Warm: trainingStream(r, 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	initial := v.Stats().Reorgs // one clustering per stripe at build
	for i := 0; i < 50; i++ {
		ex := trainingStream(r, 1)[0]
		if err := v.Update(ex.F, ex.Label); err != nil {
			t.Fatal(err)
		}
		if _, err := v.CountMembers(); err != nil {
			t.Fatal(err)
		}
	}
	if got := v.Stats().Reorgs; got != initial {
		t.Fatalf("ReorgNever striped view reorganized: %d -> %d", initial, got)
	}
}

// cursorProbeStore is a main-memory stripe whose Cursor can be made
// to fail and whose cursors record that they were closed.
type cursorProbeStore struct {
	*memStripeStore
	fail   bool
	closed bool
}

type closeProbe struct {
	RowCursor
	closed *bool
}

func (c *closeProbe) Close() {
	*c.closed = true
	c.RowCursor.Close()
}

func (s *cursorProbeStore) Cursor(lo, hi float64, res *LabelResolver) (RowCursor, error) {
	if s.fail {
		return nil, fmt.Errorf("stripe cursor failed")
	}
	c, err := s.memStripeStore.Cursor(lo, hi, res)
	if err != nil {
		return nil, err
	}
	return &closeProbe{RowCursor: c, closed: &s.closed}, nil
}

// TestScanEpsClosesOpenedCursorsOnError: when one stripe's cursor
// fails to open, ScanEps must close the cursors it already opened —
// on disk they hold page pins — before returning the error.
func TestScanEpsClosesOpenedCursorsOnError(t *testing.T) {
	stores := []*cursorProbeStore{
		{memStripeStore: newMemStripeStore()},
		{memStripeStore: newMemStripeStore(), fail: true},
	}
	entities := testEntities(rand.New(rand.NewSource(1)), 20)
	v, err := newStripedView(entities, 2, Options{}, MainMemory,
		func(i int) (StripeStore, error) { return stores[i], nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.ScanEps(math.Inf(-1), math.Inf(1)); err == nil {
		t.Fatal("ScanEps succeeded although stripe 1's cursor failed")
	}
	if !stores[0].closed {
		t.Fatal("stripe 0's cursor was left open after stripe 1 failed")
	}
}
