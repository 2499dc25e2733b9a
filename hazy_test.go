package hazy

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hazy/internal/core"
	"hazy/internal/feature"
)

// corpusFor builds a toy paper corpus: database papers share one
// vocabulary pool, systems papers another.
var dbWords = []string{"query", "index", "transaction", "relational", "join", "sql", "view", "optimizer"}
var osWords = []string{"kernel", "scheduler", "filesystem", "interrupt", "paging", "driver", "thread", "cache"}

func title(r *rand.Rand, db bool) string {
	pool := osWords
	if db {
		pool = dbWords
	}
	words := make([]string, 4+r.Intn(4))
	for i := range words {
		words[i] = pool[r.Intn(len(pool))]
	}
	return strings.Join(words, " ")
}

func buildDB(t *testing.T, arch core.Arch, strategy core.Strategy, mode core.Mode) (*DB, *ClassView, *ExampleTable, map[int64]bool) {
	t.Helper()
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	papers, err := db.CreateEntityTable("papers", "title")
	if err != nil {
		t.Fatal(err)
	}
	examples, err := db.CreateExampleTable("feedback")
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(11))
	truth := map[int64]bool{}
	for id := int64(0); id < 200; id++ {
		isDB := r.Float64() < 0.5
		truth[id] = isDB
		if err := papers.InsertText(id, title(r, isDB)); err != nil {
			t.Fatal(err)
		}
	}
	v, err := db.CreateClassificationView(ViewSpec{
		Name:     "labeled_papers",
		Entities: "papers",
		Examples: "feedback",
		Arch:     arch,
		Strategy: strategy,
		Mode:     mode,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db, v, examples, truth
}

func TestEndToEndClassification(t *testing.T) {
	for _, cfg := range []struct {
		arch core.Arch
		str  core.Strategy
		mode core.Mode
	}{
		{MainMemory, Hazy, Eager},
		{MainMemory, Naive, Lazy},
		{OnDisk, Hazy, Eager},
		{Hybrid, Hazy, Lazy},
	} {
		name := fmt.Sprintf("%v-%v-%v", cfg.arch, cfg.str, cfg.mode)
		t.Run(name, func(t *testing.T) {
			_, v, examples, truth := buildDB(t, cfg.arch, cfg.str, cfg.mode)
			// Feed feedback via SQL-style inserts (trigger-driven).
			n := int64(0)
			for id, isDB := range truth {
				label := -1
				if isDB {
					label = 1
				}
				if err := examples.InsertExample(id, label); err != nil {
					t.Fatal(err)
				}
				n++
				if n == 150 {
					break
				}
			}
			correct, total := 0, 0
			for id, isDB := range truth {
				got, err := v.Core().Label(id)
				if err != nil {
					t.Fatal(err)
				}
				want := -1
				if isDB {
					want = 1
				}
				if got == want {
					correct++
				}
				total++
			}
			if acc := float64(correct) / float64(total); acc < 0.9 {
				t.Fatalf("%s: accuracy %.3f", name, acc)
			}
			members, err := v.Core().Members()
			if err != nil {
				t.Fatal(err)
			}
			cnt, err := v.Core().CountMembers()
			if err != nil || cnt != len(members) {
				t.Fatalf("count %d vs members %d (%v)", cnt, len(members), err)
			}
		})
	}
}

func TestNewEntityTrigger(t *testing.T) {
	db, v, examples, truth := buildDB(t, MainMemory, Hazy, Eager)
	// Train on the first half of the ids in deterministic order (map
	// iteration order would vary the training set run to run and can
	// flip the ad-hoc classifications below).
	for id := int64(0); id < 100; id++ {
		label := -1
		if truth[id] {
			label = 1
		}
		if err := examples.InsertExample(id, label); err != nil {
			t.Fatal(err)
		}
	}
	bv, err := db.NewSession().Bind(v.Name())
	if err != nil {
		t.Fatal(err)
	}
	if got, err := bv.Classify("sql query optimizer with index join"); err != nil || got != 1 {
		t.Fatalf("ad-hoc classify: %d, %v", got, err)
	}
	if got, err := bv.Classify("kernel interrupt scheduler paging"); err != nil || got != -1 {
		t.Fatalf("ad-hoc classify: %d, %v", got, err)
	}
}

func TestEntityInsertTriggerClassifies(t *testing.T) {
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	papers, _ := db.CreateEntityTable("papers", "title")
	examples, _ := db.CreateExampleTable("feedback")
	r := rand.New(rand.NewSource(12))
	for id := int64(0); id < 50; id++ {
		papers.InsertText(id, title(r, id%2 == 0))
	}
	v, err := db.CreateClassificationView(ViewSpec{
		Name: "lp", Entities: "papers", Examples: "feedback",
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := int64(0); id < 50; id++ {
		label := -1
		if id%2 == 0 {
			label = 1
		}
		if err := examples.InsertExample(id, label); err != nil {
			t.Fatal(err)
		}
	}
	// New entity arrives AFTER the view exists: trigger inserts it.
	if err := papers.InsertText(500, "relational query optimizer join index sql"); err != nil {
		t.Fatal(err)
	}
	got, err := v.Core().Label(500)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("late-arriving db paper labeled %d", got)
	}
	if papers.Len() != 51 {
		t.Fatalf("papers len %d", papers.Len())
	}
	if examples.Len() != 50 {
		t.Fatalf("examples len %d", examples.Len())
	}
	if txt, err := papers.Text(500); err != nil || txt == "" {
		t.Fatalf("text: %q %v", txt, err)
	}
}

func TestViewValidation(t *testing.T) {
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.CreateClassificationView(ViewSpec{Name: "v", Entities: "nope", Examples: "nope"}); err == nil {
		t.Fatal("missing entity table accepted")
	}
	db.CreateEntityTable("e", "txt")
	if _, err := db.CreateClassificationView(ViewSpec{Name: "v", Entities: "e", Examples: "nope"}); err == nil {
		t.Fatal("missing example table accepted")
	}
	db.CreateExampleTable("x")
	if _, err := db.CreateClassificationView(ViewSpec{Name: "v", Entities: "e", Examples: "x", FeatureFunction: "bogus"}); err == nil {
		t.Fatal("unknown feature function accepted")
	}
	if _, err := db.CreateClassificationView(ViewSpec{Name: "v", Entities: "e", Examples: "x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateClassificationView(ViewSpec{Name: "v", Entities: "e", Examples: "x"}); err == nil {
		t.Fatal("duplicate view accepted")
	}
	if _, err := db.View("v"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.View("zzz"); err == nil {
		t.Fatal("missing view found")
	}
	xt, _ := db.examples["x"], 0
	if err := xt.InsertExample(1, 3); err == nil {
		t.Fatal("label 3 accepted")
	}
	if err := xt.InsertExample(999, 1); err == nil {
		t.Fatal("example for unknown entity accepted")
	}
}

func TestCustomFeatureFunction(t *testing.T) {
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.Registry().Register("custom_tfidf", func() feature.Func { return feature.NewTFIDF() })
	db.CreateEntityTable("e", "txt")
	db.CreateExampleTable("x")
	r := rand.New(rand.NewSource(3))
	et := db.tables["e"]
	for id := int64(0); id < 30; id++ {
		et.InsertText(id, title(r, id%2 == 0))
	}
	v, err := db.CreateClassificationView(ViewSpec{
		Name: "v", Entities: "e", Examples: "x", FeatureFunction: "custom_tfidf",
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Core().CountMembers(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineAttachDetach covers the engine lifecycle at the DB
// level: while attached the view is engine-managed (double attach
// rejected, registry populated, table mutations routed through the
// engine), and Close drains, re-enables the table triggers, and
// allows a fresh attach.
func TestEngineAttachDetach(t *testing.T) {
	db, v, examples, _ := buildDB(t, core.MainMemory, core.HazyStrategy, core.Eager)
	eng, err := db.AttachEngine(v.Name(), EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AttachEngine(v.Name(), EngineOptions{}); err == nil {
		t.Fatal("second attach while an engine is active succeeded")
	}
	if got := db.AttachedEngine("labeled_papers"); got != eng {
		t.Fatalf("AttachedEngine = %v, want the attached engine", got)
	}
	if err := eng.Train(0, 1); err != nil {
		t.Fatal(err)
	}
	// While managed, direct table inserts route through the engine —
	// one front door: the write is applied, maintained, and visible.
	if err := examples.InsertExample(1, -1); err != nil {
		t.Fatal(err)
	}
	if got := eng.Snapshot().Stats().Updates; got != 2 {
		t.Fatalf("updates while managed = %d, want 2 (engine-routed insert)", got)
	}
	// Deletes and relabels have no engine op and are rejected.
	if err := examples.DeleteExample(1); err == nil {
		t.Fatal("DeleteExample succeeded on an engine-managed table")
	}
	if err := examples.RelabelExample(1, 1); err == nil {
		t.Fatal("RelabelExample succeeded on an engine-managed table")
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if got := db.AttachedEngine("labeled_papers"); got != nil {
		t.Fatalf("AttachedEngine after Close = %v, want nil", got)
	}
	// Detached: triggers resume maintaining the view...
	if err := examples.InsertExample(2, 1); err != nil {
		t.Fatal(err)
	}
	if got := v.Stats().Updates; got != 3 {
		t.Fatalf("updates after detach = %d, want 3 (trigger resumed)", got)
	}
	// ...and a new engine can attach and serve.
	eng2, err := db.AttachEngine(v.Name(), EngineOptions{})
	if err != nil {
		t.Fatalf("re-attach after Close: %v", err)
	}
	defer eng2.Close()
	if err := eng2.Train(3, -1); err != nil {
		t.Fatal(err)
	}
	if got := eng2.Snapshot().Stats().Updates; got != 4 {
		t.Fatalf("updates after re-attach = %d, want 4", got)
	}
}
