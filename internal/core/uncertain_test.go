package core

import (
	"math"
	"math/rand"
	"testing"

	"hazy/internal/learn"
)

// TestMostUncertainOrdering checks the active-learning hook: returned
// ids are exactly the k smallest |eps| under the stored model, for
// every architecture.
func TestMostUncertainOrdering(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	entities := testEntities(r, 200)
	stream := trainingStream(r, 100)

	mm, err := NewStriped(entities, 1, Options{Mode: Eager, SGD: learn.SGDConfig{Eta0: 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	dv, err := NewStripedDisk(t.TempDir(), 64, entities, 1, Options{Mode: Eager, SGD: learn.SGDConfig{Eta0: 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	defer dv.Close()
	hv, err := NewStripedHybrid(t.TempDir(), 64, entities, 1, Options{Mode: Eager, SGD: learn.SGDConfig{Eta0: 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	defer hv.Close()

	for _, ex := range stream {
		if err := mm.Update(ex.F, ex.Label); err != nil {
			t.Fatal(err)
		}
		if err := dv.Update(ex.F, ex.Label); err != nil {
			t.Fatal(err)
		}
		if err := hv.Update(ex.F, ex.Label); err != nil {
			t.Fatal(err)
		}
	}
	const k = 15
	check := func(name string, got []int64, stored *learn.Model) {
		if len(got) != k {
			t.Fatalf("%s: got %d ids want %d", name, len(got), k)
		}
		// The k-th largest |eps| among returned must not exceed any
		// non-returned entity's |eps|.
		in := map[int64]bool{}
		var worst float64
		for _, id := range got {
			in[id] = true
			if a := math.Abs(stored.Activation(entities[id].F)); a > worst {
				worst = a
			}
		}
		for _, e := range entities {
			if in[e.ID] {
				continue
			}
			if a := math.Abs(stored.Activation(e.F)); a < worst-1e-12 {
				t.Fatalf("%s: entity %d (|eps|=%v) closer than returned worst %v", name, e.ID, a, worst)
			}
		}
	}
	mmGot, err := mm.MostUncertain(k)
	if err != nil {
		t.Fatal(err)
	}
	check("mm", mmGot, mm.stripes[0].wm.Stored())
	dvGot, err := dv.MostUncertain(k)
	if err != nil {
		t.Fatal(err)
	}
	check("od", dvGot, dv.stripes[0].wm.Stored())
	hvGot, err := hv.MostUncertain(k)
	if err != nil {
		t.Fatal(err)
	}
	check("hybrid", hvGot, hv.stripes[0].wm.Stored())

	// Asking for more than N returns all entities.
	all, err := mm.MostUncertain(10 * len(entities))
	if err != nil || len(all) != len(entities) {
		t.Fatalf("overshoot: %d ids, err %v", len(all), err)
	}
	// Naive strategy has no eps ordering to exploit.
	nv := NewMemView(entities, Options{})
	if _, err := nv.MostUncertain(3); err == nil {
		t.Fatal("naive MostUncertain accepted")
	}
	nd, err := NewDiskView(t.TempDir(), 32, entities, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	if _, ok := View(nd).(interface{ MostUncertain(int) ([]int64, error) }); ok {
		t.Fatal("naive disk view offers MostUncertain")
	}
}
