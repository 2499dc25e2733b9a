package core

import (
	"math/rand"
	"reflect"
	"testing"

	"hazy/internal/learn"
	"hazy/internal/vector"
)

// sameMap reports whether a and b are one map, not two equal ones.
func sameMap(a, b map[int64]int32) bool {
	return reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer()
}

// checkIndex asserts that every row of v's segment resolves to its own
// slot through the id index, and every delta row to itself.
func checkIndex(t *testing.T, what string, v *memVersion) {
	t.Helper()
	for slot, id := range v.seg.ids {
		if got, d, ok := v.locate(id); !ok || d != nil || got != slot {
			t.Fatalf("%s: id %d at slot %d resolves to (%d, %v, %v)", what, id, slot, got, d != nil, ok)
		}
	}
	for k := range v.delta {
		if _, d, ok := v.locate(v.delta[k].id); !ok || d != &v.delta[k] {
			t.Fatalf("%s: delta id %d does not resolve to its row", what, v.delta[k].id)
		}
	}
}

// TestMemStripeIndexReindexesOnlyNewRows pins the main-memory stripe's
// incremental id index. A reorganization that adds one row shares the
// previous segment's base map and indexes only that row; every id still
// resolves, in the new segment and in a version published before it;
// duplicates are rejected against both maps; and once the recent ids
// pass 1/rebaseFrac of the base, the next segment builds a fresh base.
func TestMemStripeIndexReindexesOnlyNewRows(t *testing.T) {
	const n = 50_000
	r := rand.New(rand.NewSource(3))
	m := &learn.Model{W: []float64{1, 1}, B: 1}
	s := newMemStripeStore()
	if err := s.Load(testEntities(r, n), m.Predict); err != nil {
		t.Fatal(err)
	}
	if err := s.Rebuild(m.Activation); err != nil {
		t.Fatal(err)
	}
	base := s.seg.base
	if len(base) != n || len(s.seg.recent) != 0 {
		t.Fatalf("build indexed %d base + %d recent ids, want %d + 0", len(base), len(s.seg.recent), n)
	}
	insert := func(id int64) error {
		f := vector.NewDense([]float64{r.Float64() * 2, r.Float64() * 2})
		return s.Insert(id, m.Activation(f), m.Predict(f), f)
	}

	if err := insert(n); err != nil {
		t.Fatal(err)
	}
	pub, err := s.Freeze(0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Rebuild(m.Activation); err != nil {
		t.Fatal(err)
	}
	if !sameMap(s.seg.base, base) {
		t.Fatal("a reorganization adding one row rebuilt the base id map")
	}
	if len(s.seg.recent) != 1 {
		t.Fatalf("recent map holds %d ids, want 1", len(s.seg.recent))
	}
	checkIndex(t, "new segment", &s.memVersion)
	checkIndex(t, "published version", pub)
	if pub.Len() != n+1 || !pub.Has(n) || s.Len() != n+1 || !s.Has(n) {
		t.Fatalf("lengths: published %d, live %d; want %d", pub.Len(), s.Len(), n+1)
	}
	for _, id := range []int64{0, n - 1, n} {
		if err := insert(id); err == nil {
			t.Fatalf("duplicate insert of %d accepted", id)
		}
	}

	// Each fold adds maxDelta+1 rows to the recent map until it would
	// pass n/rebaseFrac; that fold rebuilds the base.
	recent := len(s.seg.recent)
	for id := int64(n + 1); sameMap(s.seg.base, base); id++ {
		if id > n+n/4 {
			t.Fatalf("%d recent ids and the base was never rebuilt", len(s.seg.recent))
		}
		if err := insert(id); err != nil {
			t.Fatal(err)
		}
		if sameMap(s.seg.base, base) {
			if len(s.seg.recent)*rebaseFrac > n {
				t.Fatalf("%d recent ids passed 1/%d of the %d-id base", len(s.seg.recent), rebaseFrac, n)
			}
			recent = len(s.seg.recent)
		}
	}
	if (recent+maxDelta+1)*rebaseFrac <= n {
		t.Fatalf("base rebuilt at %d recent ids, before the threshold", recent)
	}
	if len(s.seg.recent) != 0 || len(s.seg.base) != len(s.seg.ids) {
		t.Fatalf("rebuilt base holds %d of %d ids, recent %d", len(s.seg.base), len(s.seg.ids), len(s.seg.recent))
	}
	checkIndex(t, "rebased segment", &s.memVersion)
	checkIndex(t, "published version", pub)
}

// TestMemStripeSweepWidensBothWays drives a main-memory stripe's eager
// sweep over a band that widens unevenly on both sides, as lw falls and
// hw rises between reorganizations, under a different model at every
// step, across two reorganizations. The band columns must hand each
// swept row its own vector: every row inside the band carries the
// current model's class of its original vector, and every row outside
// keeps sign(eps).
func TestMemStripeSweepWidensBothWays(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	entities := make([]Entity, 3000)
	for i := range entities {
		entities[i] = Entity{ID: int64(i), F: oracleVector(r)}
	}
	s := newMemStripeStore()
	if err := s.Load(entities, nil); err != nil {
		t.Fatal(err)
	}
	for _, stored := range []*learn.Model{{W: []float64{1, 1}, B: 1}, {W: []float64{-1, 0.5, 2}, B: -0.5}} {
		if err := s.Rebuild(stored.Activation); err != nil {
			t.Fatal(err)
		}
		lo, hi := 0.0, 0.0
		for step := 1; step <= 8; step++ {
			lo -= 0.01 + 0.1*r.Float64()
			hi += 0.01 + 0.1*r.Float64()
			cur := &learn.Model{W: []float64{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}, B: r.NormFloat64()}
			if _, err := s.SweepBand(lo, hi, cur.Predict); err != nil {
				t.Fatal(err)
			}
			if s.down.len() == 0 && step > 1 {
				t.Fatalf("step %d: the band never grew below where it started", step)
			}
			for i, id := range s.seg.ids {
				want := int8(learn.Sign(s.seg.eps[i]))
				if s.seg.eps[i] >= lo && s.seg.eps[i] <= hi {
					want = int8(cur.Predict(entities[id].F))
				}
				if got := s.slotLabel(i); got != want {
					t.Fatalf("step %d: slot %d (id %d, eps %v, band [%v, %v]) labeled %d, want %d",
						step, i, id, s.seg.eps[i], lo, hi, got, want)
				}
			}
		}
	}
}
