package core

import (
	"math/rand"
	"testing"

	"hazy/internal/learn"
)

// TestRetrainMatchesFreshModel verifies the §2.2-footnote path: after
// deleting examples, Retrain(remaining) leaves every variant's view
// identical to one trained only on the remaining examples.
func TestRetrainMatchesFreshModel(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	entities := testEntities(r, 150)
	stream := trainingStream(r, 80)
	keep := stream[:50] // the "surviving" examples after deletions

	views := allVariants(t, entities, Options{SGD: learn.SGDConfig{Eta0: 0.3}})
	for _, ex := range stream {
		for _, v := range views {
			if err := v.Update(ex.F, ex.Label); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Oracle: a model trained only on keep.
	oracle := learn.NewSGD(learn.SGDConfig{Eta0: 0.3})
	for _, ex := range keep {
		oracle.Train(ex.F, ex.Label)
	}
	for name, v := range views {
		if err := v.Retrain(keep); err != nil {
			t.Fatalf("%s retrain: %v", name, err)
		}
		if got := v.Model().B; got != oracle.Model().B {
			t.Fatalf("%s: model bias %v, oracle %v", name, got, oracle.Model().B)
		}
		for trial := 0; trial < 30; trial++ {
			id := int64(r.Intn(len(entities)))
			want := oracle.Model().Predict(entities[id].F)
			got, err := v.Label(id)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s: label(%d)=%d oracle %d after retrain", name, id, got, want)
			}
		}
	}
}

// TestReorgPolicies checks the ablation endpoints stay correct and
// behave as advertised: Never performs exactly the initial
// clustering, Always reorganizes on every update, and all policies
// agree with the oracle on view contents.
func TestReorgPolicies(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	entities := testEntities(r, 200)
	stream := trainingStream(r, 100)

	policies := []ReorgPolicy{ReorgSkiing, ReorgNever, ReorgAlways}
	views := make([]*StripedView, len(policies))
	for i, p := range policies {
		var err error
		views[i], err = NewStriped(entities, 1, Options{
			Mode: Eager, Reorg: p, SGD: learn.SGDConfig{Eta0: 0.3},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, ex := range stream {
		for _, v := range views {
			if err := v.Update(ex.F, ex.Label); err != nil {
				t.Fatal(err)
			}
		}
	}
	oracle := views[0].Model()
	wantCount := 0
	for _, e := range entities {
		if oracle.Predict(e.F) > 0 {
			wantCount++
		}
	}
	for i, v := range views {
		cnt, err := v.CountMembers()
		if err != nil || cnt != wantCount {
			t.Fatalf("%v: count %d want %d (%v)", policies[i], cnt, wantCount, err)
		}
	}
	if got := views[1].Stats().Reorgs; got != 1 {
		t.Fatalf("Never reorganized %d times", got)
	}
	if got := views[2].Stats().Reorgs; got != len(stream)+1 {
		t.Fatalf("Always reorganized %d times, want %d", got, len(stream)+1)
	}
	if views[1].Stats().BandTuples < views[2].Stats().BandTuples {
		t.Fatal("Never's band should dominate Always's (which is always empty-ish)")
	}
}

func TestReorgPolicyOnDisk(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	entities := testEntities(r, 80)
	stream := trainingStream(r, 40)
	for _, p := range []ReorgPolicy{ReorgNever, ReorgAlways} {
		v, err := NewStripedDisk(t.TempDir(), 32, entities, 1, Options{
			Mode: Eager, Reorg: p, SGD: learn.SGDConfig{Eta0: 0.3},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, ex := range stream {
			if err := v.Update(ex.F, ex.Label); err != nil {
				t.Fatal(err)
			}
		}
		oracle := v.Model()
		want := 0
		for _, e := range entities {
			if oracle.Predict(e.F) > 0 {
				want++
			}
		}
		cnt, err := v.CountMembers()
		if err != nil || cnt != want {
			t.Fatalf("%v: count %d want %d (%v)", p, cnt, want, err)
		}
		wantReorgs := map[ReorgPolicy]int{ReorgNever: 1, ReorgAlways: len(stream) + 1}[p]
		if got := v.Stats().Reorgs; got != wantReorgs {
			t.Fatalf("%v reorganized %d times, want %d", p, got, wantReorgs)
		}
		v.Close()
	}
}

func TestReorgPolicyStrings(t *testing.T) {
	if ReorgSkiing.String() != "skiing" || ReorgNever.String() != "never" || ReorgAlways.String() != "always" {
		t.Fatal("policy strings wrong")
	}
}

// TestRetrainHybridRefreshesEpsMap ensures the hybrid's in-memory
// summaries follow a retrain (stale ε-maps would poison every
// subsequent read).
func TestRetrainHybridRefreshesEpsMap(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	entities := testEntities(r, 120)
	h, err := NewStripedHybrid(t.TempDir(), 64, entities, 1, Options{
		Mode: Eager, SGD: learn.SGDConfig{Eta0: 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	stream := trainingStream(r, 60)
	for _, ex := range stream {
		if err := h.Update(ex.F, ex.Label); err != nil {
			t.Fatal(err)
		}
	}
	// Retrain on a flipped stream: the model reverses.
	flipped := make([]learn.Example, len(stream))
	for i, ex := range stream {
		flipped[i] = learn.Example{F: ex.F, Label: -ex.Label}
	}
	if err := h.Retrain(flipped); err != nil {
		t.Fatal(err)
	}
	oracle := h.Model()
	for trial := 0; trial < 50; trial++ {
		id := int64(r.Intn(len(entities)))
		got, err := h.Label(id)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracle.Predict(entities[id].F); got != want {
			t.Fatalf("label(%d)=%d oracle %d after hybrid retrain", id, got, want)
		}
	}
}
