package hazy

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hazy/internal/core"
)

// TestReopenRecoversTablesAndRebuildsView is the paper's §3.5.1
// durability story end to end: entities and training examples
// persist; the classification view's declaration is recovered from
// the catalog manifest and its contents are recomputed on reopen
// from the recovered tables, so it must agree with the pre-restart
// view without any re-declaration.
func TestReopenRecoversTablesAndRebuildsView(t *testing.T) {
	dir := t.TempDir()
	r := rand.New(rand.NewSource(77))

	truth := map[int64]bool{}
	var before map[int64]int
	{
		db, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		papers, err := db.CreateEntityTable("papers", "title")
		if err != nil {
			t.Fatal(err)
		}
		feedback, err := db.CreateExampleTable("feedback")
		if err != nil {
			t.Fatal(err)
		}
		for id := int64(0); id < 120; id++ {
			isDB := r.Float64() < 0.5
			truth[id] = isDB
			if err := papers.InsertText(id, title(r, isDB)); err != nil {
				t.Fatal(err)
			}
		}
		view, err := db.CreateClassificationView(ViewSpec{
			Name: "labeled", Entities: "papers", Examples: "feedback",
		})
		if err != nil {
			t.Fatal(err)
		}
		for id := int64(0); id < 80; id++ {
			label := -1
			if truth[id] {
				label = 1
			}
			if err := feedback.InsertExample(id, label); err != nil {
				t.Fatal(err)
			}
		}
		before = map[int64]int{}
		for id := int64(0); id < 120; id++ {
			l, err := view.Core().Label(id)
			if err != nil {
				t.Fatal(err)
			}
			before[id] = l
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Reopen: tables recover from the manifest; the view is
	// re-declared and retrains from the persisted examples.
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	papers, err := db.EntityTableByName("papers")
	if err != nil {
		t.Fatal(err)
	}
	if papers.Len() != 120 {
		t.Fatalf("recovered %d papers", papers.Len())
	}
	feedback, err := db.ExampleTableByName("feedback")
	if err != nil {
		t.Fatal(err)
	}
	if feedback.Len() != 80 {
		t.Fatalf("recovered %d examples", feedback.Len())
	}
	// The view was re-declared by Open from the manifest — no
	// CreateClassificationView needed, and a duplicate declaration is
	// rejected like any other.
	view, err := db.View("labeled")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateClassificationView(ViewSpec{
		Name: "labeled", Entities: "papers", Examples: "feedback",
	}); err == nil {
		t.Fatal("re-declaring the recovered view succeeded")
	}
	for id := int64(0); id < 120; id++ {
		got, err := view.Core().Label(id)
		if err != nil {
			t.Fatal(err)
		}
		if got != before[id] {
			t.Fatalf("label(%d)=%d before restart, %d after", id, before[id], got)
		}
	}
	// The recovered tables remain writable and trigger-connected.
	if err := papers.InsertText(500, "sql query optimizer relational database index"); err != nil {
		t.Fatal(err)
	}
	if _, err := view.Core().Label(500); err != nil {
		t.Fatal(err)
	}
	if err := feedback.InsertExample(500, 1); err != nil {
		t.Fatal(err)
	}
}

// TestReopenRecoversTableKindsFromManifest is the regression for the
// seed's schema-shape guessing: table kinds now come from the
// manifest, so an entity table whose text column is named "label" —
// which shares its column NAMES with an examples table — and tables
// that a 2-column heuristic would misfile all come back with their
// declared kinds, and the declared views over them are recovered.
func TestReopenRecoversTableKindsFromManifest(t *testing.T) {
	dir := t.TempDir()
	{
		db, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		// An entity table with a trap column name.
		if _, err := db.CreateEntityTable("docs", "label"); err != nil {
			t.Fatal(err)
		}
		if _, err := db.CreateExampleTable("votes"); err != nil {
			t.Fatal(err)
		}
		docs, _ := db.EntityTableByName("docs")
		docs.InsertText(1, "relational database query")
		docs.InsertText(2, "kernel interrupt scheduler")
		if _, err := db.CreateClassificationView(ViewSpec{
			Name: "tagged", Entities: "docs", Examples: "votes", Method: "logistic",
		}); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	docs, err := db.EntityTableByName("docs")
	if err != nil {
		t.Fatalf("docs not recovered as an entity table: %v", err)
	}
	if got := docs.TextColumn(); got != "label" {
		t.Fatalf("recovered text column %q, want %q", got, "label")
	}
	if _, err := db.ExampleTableByName("docs"); err == nil {
		t.Fatal("entity table also recovered as an examples table")
	}
	if _, err := db.ExampleTableByName("votes"); err != nil {
		t.Fatalf("votes not recovered as an examples table: %v", err)
	}
	v, err := db.View("tagged")
	if err != nil {
		t.Fatalf("view not recovered from manifest: %v", err)
	}
	if got := v.Method(); got != "logistic" {
		t.Fatalf("recovered view method %q, want %q", got, "logistic")
	}
	// The recovered stack is live: feedback maintains the view.
	votes, _ := db.ExampleTableByName("votes")
	if err := votes.InsertExample(1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Core().Label(2); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteExampleRetrains checks the facade's §2.2-footnote path:
// deleting a training example retrains the model from scratch on the
// remaining examples.
func TestDeleteExampleRetrains(t *testing.T) {
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	papers, _ := db.CreateEntityTable("papers", "title")
	feedback, _ := db.CreateExampleTable("feedback")
	r := rand.New(rand.NewSource(78))
	for id := int64(0); id < 60; id++ {
		papers.InsertText(id, title(r, id%2 == 0))
	}
	view, err := db.CreateClassificationView(ViewSpec{
		Name: "v", Entities: "papers", Examples: "feedback",
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := int64(0); id < 40; id++ {
		label := -1
		if id%2 == 0 {
			label = 1
		}
		if err := feedback.InsertExample(id, label); err != nil {
			t.Fatal(err)
		}
	}
	// Poison the model with deliberately wrong labels, then delete
	// them: the view must recover its original behaviour.
	for id := int64(40); id < 50; id++ {
		wrong := 1
		if id%2 == 0 {
			wrong = -1
		}
		if err := feedback.InsertExample(id, wrong); err != nil {
			t.Fatal(err)
		}
	}
	for id := int64(40); id < 50; id++ {
		if err := feedback.DeleteExample(id); err != nil {
			t.Fatal(err)
		}
	}
	if feedback.Len() != 40 {
		t.Fatalf("len=%d after deletes", feedback.Len())
	}
	correct := 0
	for id := int64(0); id < 60; id++ {
		got, err := view.Core().Label(id)
		if err != nil {
			t.Fatal(err)
		}
		want := -1
		if id%2 == 0 {
			want = 1
		}
		if got == want {
			correct++
		}
	}
	if acc := float64(correct) / 60; acc < 0.9 {
		t.Fatalf("accuracy %.2f after deleting poison examples", acc)
	}
	// Relabeling also retrains.
	if err := feedback.RelabelExample(0, -1); err != nil {
		t.Fatal(err)
	}
	if err := feedback.RelabelExample(0, 5); err == nil {
		t.Fatal("bad relabel accepted")
	}
}

// TestReopenReproducesBuild: with no writes after CREATE VIEW, the
// §3.5.1 recompute at reopen rebuilds the view bit for bit — model
// weights and bias, every entity's eps and label — for every
// architecture, striped and not. Warm examples take their entity's
// corpus-pass vector, so this also guards that reuse.
func TestReopenReproducesBuild(t *testing.T) {
	const entities = 2000
	type state struct {
		w      []uint64
		b      uint64
		eps    []uint64
		labels []int
	}
	capture := func(t *testing.T, cv *ClassView) state {
		t.Helper()
		m := cv.Core().Model()
		st := state{b: math.Float64bits(m.B)}
		for _, x := range m.W {
			st.w = append(st.w, math.Float64bits(x))
		}
		for id := int64(0); id < entities; id++ {
			eps, err := cv.Core().(core.EpsIndexed).EpsOf(id)
			if err != nil {
				t.Fatal(err)
			}
			l, err := cv.Core().Label(id)
			if err != nil {
				t.Fatal(err)
			}
			st.eps = append(st.eps, math.Float64bits(eps))
			st.labels = append(st.labels, l)
		}
		return st
	}
	for _, arch := range []core.Arch{MainMemory, OnDisk, Hybrid} {
		for _, parts := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v/P%d", arch, parts), func(t *testing.T) {
				dir := t.TempDir()
				db, err := Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				papers, err := db.CreateEntityTable("papers", "title")
				if err != nil {
					t.Fatal(err)
				}
				feedback, err := db.CreateExampleTable("feedback")
				if err != nil {
					t.Fatal(err)
				}
				r := rand.New(rand.NewSource(int64(parts)))
				for id := int64(0); id < entities; id++ {
					if err := papers.InsertText(id, fmt.Sprintf("%s w%d", title(r, id%2 == 0), id%97)); err != nil {
						t.Fatal(err)
					}
				}
				for _, id := range r.Perm(entities)[:500] {
					if err := feedback.InsertExample(int64(id), 1-2*(id%2)); err != nil {
						t.Fatal(err)
					}
				}
				cv, err := db.CreateClassificationView(ViewSpec{
					Name: "v", Entities: "papers", Examples: "feedback", Arch: arch, Partitions: parts,
				})
				if err != nil {
					t.Fatal(err)
				}
				before := capture(t, cv)
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				db, err = Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				cv, err = db.View("v")
				if err != nil {
					t.Fatal(err)
				}
				after := capture(t, cv)
				if !slices.Equal(before.w, after.w) || before.b != after.b {
					t.Fatal("reopened model differs from the built one")
				}
				if !slices.Equal(before.eps, after.eps) || !slices.Equal(before.labels, after.labels) {
					t.Fatal("reopened eps or labels differ from the built ones")
				}
			})
		}
	}
}
