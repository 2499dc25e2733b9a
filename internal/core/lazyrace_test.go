package core

import (
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"hazy/internal/learn"
	"hazy/internal/vector"
)

// TestLazyMembersRaceAgainstIngest hammers lazy All Members reads
// against a concurrent ingest stream, for every layout, with every
// call serialized by one plain mutex — the discipline the database's
// statement mutex gives unmanaged views. Lazy Members is a mutating
// read — it accrues Skiing waste (AddWaste) and can trigger a
// reorganization mid-scan (for the hybrid, also an ε-map/buffer
// rebuild) — so no layout may touch shared state outside the call
// that holds the mutex (a stripe scatter must finish before it
// returns); run under -race this test is the proof. It also pins the
// result invariant: every Members result must equal a model-oracle
// classification of some published model state (here checked at
// quiesce).
func TestLazyMembersRaceAgainstIngest(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	entities := testEntities(r, 200)
	build := map[string]func(t *testing.T, opts Options) View{
		"mm": func(t *testing.T, opts Options) View {
			v, err := NewStriped(entities, 1, opts)
			if err != nil {
				t.Fatal(err)
			}
			return v
		},
		"od": func(t *testing.T, opts Options) View {
			v, err := NewStripedDisk(filepath.Join(t.TempDir(), "od"), 64, entities, 1, opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { v.Close() })
			return v
		},
		"hybrid": func(t *testing.T, opts Options) View {
			v, err := NewStripedHybrid(filepath.Join(t.TempDir(), "hybrid"), 64, entities, 1, opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { v.Close() })
			return v
		},
		"striped": func(t *testing.T, opts Options) View {
			v, err := NewStriped(entities, 4, opts)
			if err != nil {
				t.Fatal(err)
			}
			return v
		},
		"striped-od": func(t *testing.T, opts Options) View {
			v, err := NewStripedDisk(filepath.Join(t.TempDir(), "sod"), 128, entities, 4, opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { v.Close() })
			return v
		},
		"striped-hybrid": func(t *testing.T, opts Options) View {
			v, err := NewStripedHybrid(filepath.Join(t.TempDir(), "shy"), 128, entities, 4, opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { v.Close() })
			return v
		},
	}
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			opts := Options{Mode: Lazy, Norm: math.Inf(1),
				SGD: learn.SGDConfig{Eta0: 0.3}, Warm: trainingStream(rand.New(rand.NewSource(5)), 10)}
			// Alpha tiny so waste-triggered reorganizations actually
			// fire during the scan storm.
			opts.Alpha = 0.01
			v := mk(t, opts)
			var mu sync.Mutex
			locked := func(op string, fn func() error) bool {
				mu.Lock()
				defer mu.Unlock()
				if err := fn(); err != nil {
					t.Errorf("%s: %v", op, err)
					return false
				}
				return true
			}

			var wg sync.WaitGroup
			const readers, reads, writes = 4, 60, 120
			for g := 0; g < readers; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rr := rand.New(rand.NewSource(seed))
					for i := 0; i < reads; i++ {
						scan := func() error { _, err := v.Members(); return err }
						if rr.Intn(2) == 1 {
							scan = func() error { _, err := v.CountMembers(); return err }
						}
						id := int64(rr.Intn(len(entities)))
						if !locked("scan", scan) ||
							!locked("Label", func() error { _, err := v.Label(id); return err }) {
							return
						}
					}
				}(int64(g))
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				wr := rand.New(rand.NewSource(99))
				nextID := int64(len(entities))
				for i := 0; i < writes; i++ {
					if i%5 == 4 {
						e := Entity{ID: nextID, F: vector.NewDense([]float64{wr.Float64() * 2, wr.Float64() * 2})}
						nextID++
						if !locked("Insert", func() error { return v.Insert(e) }) {
							return
						}
						continue
					}
					ex := trainingStream(wr, 1)[0]
					if !locked("Update", func() error { return v.Update(ex.F, ex.Label) }) {
						return
					}
				}
			}()
			wg.Wait()

			// Quiesced oracle: Members equals classifying every entity
			// with the final model (the hybrid would fail this if a
			// waste-triggered reorganization skipped its ε-map rebuild).
			model := v.Model()
			got, err := v.Members()
			if err != nil {
				t.Fatal(err)
			}
			members := map[int64]bool{}
			for _, id := range got {
				members[id] = true
			}
			n, err := v.CountMembers()
			if err != nil {
				t.Fatal(err)
			}
			if n != len(got) {
				t.Fatalf("CountMembers %d != len(Members) %d", n, len(got))
			}
			for _, e := range entities {
				if want := model.Predict(e.F) > 0; members[e.ID] != want {
					t.Fatalf("entity %d: member=%v oracle=%v", e.ID, members[e.ID], want)
				}
				label, err := v.Label(e.ID)
				if err != nil {
					t.Fatal(err)
				}
				if label != model.Predict(e.F) {
					t.Fatalf("entity %d: Label=%d oracle=%d (stale read summaries?)", e.ID, label, model.Predict(e.F))
				}
			}
		})
	}
}

// TestHybridLazyMembersReorgRebuildsMemory is the deterministic
// regression for the hybrid's read-path reorganization: a lazy All
// Members read that trips Skiing's waste threshold reorganizes the
// disk table, and before the fix left the in-memory ε-map holding eps
// values of the OLD stored model against the reset watermarks — so
// Label answered certainty tests with stale keys. Force a
// waste-triggered reorganization through Members and check every
// Label against the model oracle.
func TestHybridLazyMembersReorgRebuildsMemory(t *testing.T) {
	hybridLazyMembersReorg(t, 1, 17)
}

// TestStripedHybridLazyMembersReorg is the striped composition of the
// same regression: each stripe reorganizes through the generic
// Rebuild — which for the hybrid store must also rebuild that stripe's
// ε-map and boundary buffer.
func TestStripedHybridLazyMembersReorg(t *testing.T) {
	hybridLazyMembersReorg(t, 4, 29)
}

func hybridLazyMembersReorg(t *testing.T, partitions int, seed int64) {
	r := rand.New(rand.NewSource(seed))
	entities := testEntities(r, 150)
	v, err := NewStripedHybrid(t.TempDir(), 128, entities, partitions, Options{
		Mode: Lazy, Norm: math.Inf(1), Alpha: 1e-6, // reorganize at the slightest waste
		SGD: learn.SGDConfig{Eta0: 0.5}, Warm: trainingStream(r, 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	before := v.Stats().Reorgs
	reorged := false
	for i := 0; i < 200 && !reorged; i++ {
		// Drift the model (lazy: trains only), then read — waste
		// accrues on the read and eventually trips the threshold.
		ex := trainingStream(r, 1)[0]
		if err := v.Update(ex.F, ex.Label); err != nil {
			t.Fatal(err)
		}
		if _, err := v.CountMembers(); err != nil {
			t.Fatal(err)
		}
		reorged = v.Stats().Reorgs > before
	}
	if !reorged {
		t.Fatal("test setup: no waste-triggered reorganization fired")
	}
	model := v.Model()
	for _, e := range entities {
		label, err := v.Label(e.ID)
		if err != nil {
			t.Fatal(err)
		}
		if want := model.Predict(e.F); label != want {
			t.Fatalf("entity %d: Label=%d oracle=%d after read-path reorganization", e.ID, label, want)
		}
	}
}
