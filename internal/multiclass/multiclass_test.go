package multiclass

import (
	"math/rand"
	"path/filepath"
	"testing"

	"hazy/internal/core"
	"hazy/internal/learn"
	"hazy/internal/vector"
)

// threeClassData builds entities in three well-separated unit-square
// clusters so one-vs-all converges quickly.
func threeClassData(r *rand.Rand, n int) ([]core.Entity, []int) {
	centers := [][2]float64{{0, 0}, {4, 0}, {0, 4}}
	ents := make([]core.Entity, n)
	classes := make([]int, n)
	for i := range ents {
		c := r.Intn(3)
		classes[i] = c
		ents[i] = core.Entity{
			ID: int64(i),
			F: vector.NewDense([]float64{
				centers[c][0] + r.Float64(),
				centers[c][1] + r.Float64(),
			}),
		}
	}
	return ents, classes
}

func newMM(entities []core.Entity) func(int) (core.View, error) {
	return func(int) (core.View, error) {
		return core.New(core.MainMemory, core.HazyStrategy, "", 0, entities, core.Options{
			Mode: core.Eager,
			SGD:  learn.SGDConfig{Eta0: 0.5},
		})
	}
}

func ids(ents []core.Entity) []int64 {
	out := make([]int64, len(ents))
	for i, e := range ents {
		out[i] = e.ID
	}
	return out
}

func TestMulticlassLearnsClusters(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	ents, classes := threeClassData(r, 200)
	m, err := New(3, ids(ents), newMM(ents))
	if err != nil {
		t.Fatal(err)
	}
	if m.Classes() != 3 {
		t.Fatalf("classes=%d", m.Classes())
	}
	// Train on fresh draws from the same distribution.
	for step := 0; step < 1500; step++ {
		tr, cls := threeClassData(r, 1)
		if err := m.Update(tr[0].F, cls[0]); err != nil {
			t.Fatal(err)
		}
	}
	correct := 0
	for i, e := range ents {
		got, err := m.Label(e.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got == classes[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(ents)); acc < 0.9 {
		t.Fatalf("multiclass accuracy %.3f", acc)
	}
}

func TestMembersPartition(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	ents, _ := threeClassData(r, 120)
	m, err := New(3, ids(ents), newMM(ents))
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 900; step++ {
		tr, cls := threeClassData(r, 1)
		if err := m.Update(tr[0].F, cls[0]); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[int64]int{}
	total := 0
	for c := 0; c < 3; c++ {
		members, err := m.Members(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range members {
			if prev, dup := seen[id]; dup {
				t.Fatalf("entity %d in classes %d and %d", id, prev, c)
			}
			seen[id] = c
			// Members must agree with Label.
			got, err := m.Label(id)
			if err != nil || got != c {
				t.Fatalf("entity %d: members says %d, label says %d (%v)", id, c, got, err)
			}
		}
		total += len(members)
	}
	if total != len(ents) {
		t.Fatalf("partition covers %d of %d entities", total, len(ents))
	}
}

func TestUpdateValidation(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	ents, _ := threeClassData(r, 10)
	m, err := New(3, ids(ents), newMM(ents))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Update(ents[0].F, 7); err == nil {
		t.Fatal("out-of-range class accepted")
	}
	if err := m.Update(ents[0].F, -1); err == nil {
		t.Fatal("negative class accepted")
	}
	if _, err := New(1, nil, newMM(ents)); err == nil {
		t.Fatal("single class accepted")
	}
	if _, err := m.Members(9); err == nil {
		t.Fatal("out-of-range members accepted")
	}
}

func TestInsertPropagates(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	ents, _ := threeClassData(r, 60)
	m, err := New(3, ids(ents), newMM(ents))
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 600; step++ {
		tr, cls := threeClassData(r, 1)
		m.Update(tr[0].F, cls[0])
	}
	// Insert an entity deep in cluster 1's territory.
	e := core.Entity{ID: 5000, F: vector.NewDense([]float64{4.5, 0.5})}
	if err := m.Insert(e); err != nil {
		t.Fatal(err)
	}
	got, err := m.Label(5000)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("inserted entity classified %d, want 1", got)
	}
	// And it participates in Members.
	found := false
	for c := 0; c < 3; c++ {
		members, err := m.Members(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range members {
			if id == 5000 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("inserted entity missing from partition")
	}
}

func TestOnDiskMulticlass(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	ents, _ := threeClassData(r, 60)
	dir := t.TempDir()
	m, err := New(3, ids(ents), func(c int) (core.View, error) {
		return core.New(core.OnDisk, core.HazyStrategy, filepath.Join(dir, string(rune('a'+c))), 32, ents, core.Options{
			Mode: core.Eager,
			SGD:  learn.SGDConfig{Eta0: 0.5},
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 300; step++ {
		tr, cls := threeClassData(r, 1)
		if err := m.Update(tr[0].F, cls[0]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Label(ents[0].ID); err != nil {
		t.Fatal(err)
	}
}
