// Many-views churn under the shared maintenance scheduler: every
// attached engine and every striped view in one catalog runs its
// maintenance on a single internal/sched pool, so this suite attaches
// and detaches engines across many views concurrently with mixed
// ADD/TRAIN traffic and snapshot reads — the lifecycle the catalog-
// scale refactor has to survive under -race.
package hazy_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	root "hazy"
	"hazy/internal/engine"
)

// churnStack creates n disjoint (papers_i, feedback_i,
// labeled_papers_i) stacks — AttachEngine requires engined views not
// to share tables — each seeded with four entities.
func churnStack(t testing.TB, db *root.DB, n int) []string {
	t.Helper()
	views := make([]string, n)
	for i := 0; i < n; i++ {
		ents := fmt.Sprintf("papers_%d", i)
		exs := fmt.Sprintf("feedback_%d", i)
		views[i] = fmt.Sprintf("labeled_papers_%d", i)
		et, err := db.CreateEntityTable(ents, "title")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.CreateExampleTable(exs); err != nil {
			t.Fatal(err)
		}
		for id := int64(1); id <= 4; id++ {
			text := "query optimization relational"
			if id%2 == 0 {
				text = "protein folding biology"
			}
			if err := et.InsertText(id, text); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := db.CreateClassificationView(root.ViewSpec{
			Name: views[i], Entities: ents, Examples: exs,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return views
}

// TestManyViewsChurnRace attaches and detaches engines on many views
// concurrently, each attachment serving mixed ADD/TRAIN/read traffic
// through the shared pool. Run under -race in CI; the assertions here
// are liveness (nothing deadlocks or leaks an error), read-your-
// writes after each Flush, and a final clean Close.
func TestManyViewsChurnRace(t *testing.T) {
	views := 16
	rounds := 3
	if testing.Short() {
		views, rounds = 6, 2
	}

	dir := t.TempDir()
	db, err := root.OpenWith(dir, root.OpenOptions{Fsync: "off", MaintWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	names := churnStack(t, db, views)

	var nextID atomic.Int64
	nextID.Store(1000)
	var wg sync.WaitGroup
	for vi, name := range names {
		wg.Add(1)
		go func(vi int, name string) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				eng, err := db.AttachEngine(name, root.EngineOptions{QueueSize: 64, MaxBatch: 16})
				if err != nil {
					t.Errorf("attach %s round %d: %v", name, r, err)
					return
				}
				tok := eng.NewToken()
				for j := 0; j < 8; j++ {
					id := nextID.Add(1)
					if err := eng.AddAsyncTok(tok, id, "incremental maintenance of views"); err != nil {
						t.Errorf("%s add: %v", name, err)
						return
					}
					// Order is preserved across kinds, so training the
					// just-queued entity is safe; fresh ids keep the
					// examples table collision-free across rounds.
					if err := eng.TrainAsyncTok(tok, id, 1-2*(j%2)); err != nil {
						t.Errorf("%s train: %v", name, err)
						return
					}
					// Reads interleave with scheduled maintenance,
					// lock-free from the published snapshot.
					if _, err := eng.Snapshot().Label(int64(j%4 + 1)); err != nil {
						t.Errorf("%s label: %v", name, err)
						return
					}
				}
				if err := eng.FlushTok(tok); err != nil {
					t.Errorf("%s flush: %v", name, err)
					return
				}
				// Read-your-writes: everything flushed is visible.
				if n := eng.Snapshot().CountMembers(); n <= 0 {
					t.Errorf("%s members after flush = %d", name, n)
					return
				}
				if err := db.DetachEngine(name); err != nil {
					t.Errorf("detach %s round %d: %v", name, r, err)
					return
				}
			}
		}(vi, name)
	}
	wg.Wait()

	if err := db.Close(); err != nil {
		t.Fatalf("Close after churn: %v", err)
	}
}

// TestManyViewsGoroutineBudget pins the tentpole's O(pool) claim at
// the API level: a catalog with many attached engines must not grow
// its goroutine count per view — engines are parked task sources, not
// goroutine owners.
func TestManyViewsGoroutineBudget(t *testing.T) {
	views := 64
	if testing.Short() || raceEnabled {
		views = 24
	}

	dir := t.TempDir()
	db, err := root.OpenWith(dir, root.OpenOptions{Fsync: "off", MaintWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	names := churnStack(t, db, views)

	before := runtime.NumGoroutine()
	engines := make([]*engine.Engine, 0, views)
	for _, name := range names {
		eng, err := db.AttachEngine(name, root.EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, eng)
	}
	// Idle engines are parked: no goroutine per view.
	if after := runtime.NumGoroutine(); after-before > 4 {
		t.Fatalf("attaching %d engines grew goroutines by %d (before=%d after=%d); engines must not own goroutines",
			views, after-before, before, after)
	}

	// Drive them all, then re-check at quiescence.
	for _, eng := range engines {
		if err := eng.TrainAsync(1, 1); err != nil {
			t.Fatal(err)
		}
	}
	for _, eng := range engines {
		if err := eng.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if after := runtime.NumGoroutine(); after-before > 4 {
		t.Fatalf("after traffic, %d engines hold %d extra goroutines (before=%d after=%d)",
			views, after-before, before, after)
	}
}
