package hazy

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hazy/internal/core"
	"hazy/internal/feature"
	"hazy/internal/learn"
)

func newSession(t *testing.T) *Session {
	t.Helper()
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db.NewSession()
}

func mustExec(t *testing.T, s *Session, sql string) *Result {
	t.Helper()
	r, err := s.Exec(sql)
	if err != nil {
		t.Fatalf("%s\n→ %v", sql, err)
	}
	return r
}

func mustBind(t *testing.T, s *Session, view string) *BoundView {
	t.Helper()
	bv, err := s.Bind(view)
	if err != nil {
		t.Fatal(err)
	}
	return bv
}

func TestEndToEndSQL(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE papers (id BIGINT, title TEXT) KEY id")
	mustExec(t, s, "CREATE TABLE feedback (id BIGINT, label BIGINT) KEY id")
	mustExec(t, s, `INSERT INTO papers VALUES
		(1, 'relational query optimization and indexing'),
		(2, 'kernel scheduling for multicore operating systems'),
		(3, 'sql views and transaction processing'),
		(4, 'device drivers and interrupt handling'),
		(5, 'join algorithms for relational databases')`)
	mustExec(t, s, `
		CREATE CLASSIFICATION VIEW labeled KEY id
		ENTITIES FROM papers KEY id
		EXAMPLES FROM feedback KEY id LABEL l
		FEATURE FUNCTION tf_bag_of_words
		USING SVM ARCHITECTURE MM STRATEGY HAZY MODE EAGER`)
	// Feedback via plain INSERTs (trigger-maintained).
	mustExec(t, s, "INSERT INTO feedback VALUES (1, 1), (2, -1), (3, 1), (4, -1)")

	// Single entity read.
	r := mustExec(t, s, "SELECT class FROM labeled WHERE id = 5")
	if len(r.Rows) != 1 || r.Rows[0][0] != "1" {
		t.Fatalf("paper 5 should classify as database: %+v", r)
	}
	// All members.
	r = mustExec(t, s, "SELECT id FROM labeled WHERE class = 1")
	if len(r.Rows) < 2 {
		t.Fatalf("members: %+v", r)
	}
	for _, row := range r.Rows {
		if row[0] == "2" || row[0] == "4" {
			t.Fatalf("os paper in database class: %+v", r)
		}
	}
	// Count form.
	r = mustExec(t, s, "SELECT COUNT(*) FROM labeled WHERE class = 1")
	if len(r.Rows) != 1 {
		t.Fatalf("count: %+v", r)
	}
	// Negative class via full scan.
	r = mustExec(t, s, "SELECT id, class FROM labeled WHERE class = -1")
	for _, row := range r.Rows {
		if row[1] != "-1" {
			t.Fatalf("negative scan: %+v", r)
		}
	}
	// Base table select with predicate.
	r = mustExec(t, s, "SELECT title FROM papers WHERE id = 2")
	if len(r.Rows) != 1 || !strings.Contains(r.Rows[0][0], "kernel") {
		t.Fatalf("base select: %+v", r)
	}
	r = mustExec(t, s, "SELECT COUNT(*) FROM papers WHERE id >= 3")
	if r.Rows[0][0] != "3" {
		t.Fatalf("count papers: %+v", r)
	}
	r = mustExec(t, s, "SELECT * FROM feedback WHERE label = 1")
	if len(r.Rows) != 2 {
		t.Fatalf("feedback positive: %+v", r)
	}
}

func TestSQLValidation(t *testing.T) {
	s := newSession(t)
	if _, err := s.Exec("CREATE TABLE t (a BIGINT, b TEXT, c TEXT) KEY a"); err == nil {
		t.Fatal("3-column table accepted")
	}
	if _, err := s.Exec("INSERT INTO missing VALUES (1, 'x')"); err == nil {
		t.Fatal("insert into missing table accepted")
	}
	if _, err := s.Exec("SELECT * FROM missing"); err == nil {
		t.Fatal("select from missing table accepted")
	}
	mustExec(t, s, "CREATE TABLE papers (id BIGINT, title TEXT) KEY id")
	if _, err := s.Exec("INSERT INTO papers VALUES (1, 2)"); err == nil {
		t.Fatal("numeric text accepted")
	}
	if _, err := s.Exec("INSERT INTO papers VALUES ('x', 'y')"); err == nil {
		t.Fatal("string id accepted")
	}
	mustExec(t, s, "CREATE TABLE fb (id BIGINT, label BIGINT) KEY id")
	if _, err := s.Exec("INSERT INTO fb VALUES (1, 7)"); err == nil {
		t.Fatal("label 7 accepted")
	}
	if _, err := s.Exec(`CREATE CLASSIFICATION VIEW v KEY id
		ENTITIES FROM papers KEY id EXAMPLES FROM fb KEY id LABEL l
		FEATURE FUNCTION nope`); err == nil {
		t.Fatal("unknown feature function accepted")
	}
	if _, err := s.Exec(`CREATE CLASSIFICATION VIEW v KEY id
		ENTITIES FROM papers KEY id EXAMPLES FROM fb KEY id LABEL l
		FEATURE FUNCTION tf_bag_of_words ARCHITECTURE QUANTUM`); err == nil {
		t.Fatal("unknown architecture accepted")
	}
	if _, err := s.Exec("SELECT nope FROM papers"); err == nil {
		t.Fatal("unknown column accepted")
	}
	if _, err := s.Exec("SELECT * FROM papers WHERE nope = 1"); err == nil {
		t.Fatal("unknown where column accepted")
	}
	if _, err := s.Exec("ATTACH ENGINE TO nope"); err == nil {
		t.Fatal("attach to unknown view accepted")
	}
	if _, err := s.Exec("DETACH ENGINE FROM nope"); err == nil {
		t.Fatal("detach from unknown view accepted")
	}
}

func TestViewArchitectureVariantsViaSQL(t *testing.T) {
	for _, clause := range []string{
		"ARCHITECTURE MM STRATEGY NAIVE MODE LAZY",
		"ARCHITECTURE OD STRATEGY HAZY MODE EAGER",
		"ARCHITECTURE HYBRID MODE LAZY",
	} {
		s := newSession(t)
		mustExec(t, s, "CREATE TABLE p (id BIGINT, txt TEXT) KEY id")
		mustExec(t, s, "CREATE TABLE fb (id BIGINT, label BIGINT) KEY id")
		mustExec(t, s, "INSERT INTO p VALUES (1,'alpha beta'),(2,'gamma delta'),(3,'alpha gamma')")
		mustExec(t, s, `CREATE CLASSIFICATION VIEW v KEY id
			ENTITIES FROM p KEY id EXAMPLES FROM fb KEY id LABEL l
			FEATURE FUNCTION tf_bag_of_words `+clause)
		mustExec(t, s, "INSERT INTO fb VALUES (1,1),(2,-1)")
		r := mustExec(t, s, "SELECT COUNT(*) FROM v WHERE class = 1")
		if len(r.Rows) != 1 {
			t.Fatalf("%s: %+v", clause, r)
		}
	}
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE p (id BIGINT, txt TEXT) KEY id")
	mustExec(t, s, "CREATE TABLE fb (id BIGINT, label BIGINT) KEY id")
	if _, err := s.Exec(`CREATE CLASSIFICATION VIEW v KEY id
		ENTITIES FROM p KEY id EXAMPLES FROM fb KEY id LABEL l
		FEATURE FUNCTION tf_bag_of_words ARCHITECTURE HYBRID STRATEGY NAIVE`); err == nil {
		t.Fatal("hybrid+naive accepted")
	}
	// The engine requires a snapshot-capable view: every Hazy view is
	// one (an unstriped on-disk view included), the naive on-disk view
	// is not, and SQL rejects it too.
	mustExec(t, s, `CREATE CLASSIFICATION VIEW odv KEY id
		ENTITIES FROM p KEY id EXAMPLES FROM fb KEY id LABEL l
		FEATURE FUNCTION tf_bag_of_words ARCHITECTURE OD`)
	mustExec(t, s, "ATTACH ENGINE TO odv")
	mustExec(t, s, "DETACH ENGINE FROM odv")
	mustExec(t, s, `CREATE CLASSIFICATION VIEW odn KEY id
		ENTITIES FROM p KEY id EXAMPLES FROM fb KEY id LABEL l
		FEATURE FUNCTION tf_bag_of_words ARCHITECTURE OD STRATEGY NAIVE`)
	if _, err := s.Exec("ATTACH ENGINE TO odn"); err == nil {
		t.Fatal("engine attached to a naive on-disk view")
	}
}

// TestEnginedOnDiskView: an engine over an unstriped on-disk view
// serves reads from its published snapshots, and after synchronous
// writes — examples and new entities — every LABEL equals the label a
// model trained from scratch on the same examples assigns.
func TestEnginedOnDiskView(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE p (id BIGINT, txt TEXT) KEY id")
	mustExec(t, s, "CREATE TABLE fb (id BIGINT, label BIGINT) KEY id")
	r := rand.New(rand.NewSource(41))
	texts := map[int64]string{}
	insert := func(id int64) {
		texts[id] = title(r, id%2 == 0)
		mustExec(t, s, fmt.Sprintf("INSERT INTO p VALUES (%d, '%s')", id, texts[id]))
	}
	for id := int64(0); id < 60; id++ {
		insert(id)
	}
	mustExec(t, s, `CREATE CLASSIFICATION VIEW odv KEY id
		ENTITIES FROM p KEY id EXAMPLES FROM fb KEY id LABEL l
		FEATURE FUNCTION tf_bag_of_words USING SVM ARCHITECTURE OD`)
	// Live, the one-stripe view keeps the plain single-cursor plan.
	if plan := fmt.Sprint(mustExec(t, s, "EXPLAIN SELECT id FROM odv WHERE eps >= -1.0 AND eps <= 1.0").Rows); !strings.Contains(plan, "EpsRange(odv, live") {
		t.Fatalf("live on-disk plan = %s, want a single-cursor EpsRange", plan)
	}
	mustExec(t, s, "ATTACH ENGINE TO odv")
	cv, err := s.DB().View("odv")
	if err != nil {
		t.Fatal(err)
	}
	fresh := learn.NewSGD(learn.SGDConfig{Loss: learn.LossFor(learn.MethodSVM)})
	for id := int64(0); id < 40; id++ {
		label := 1 - 2*(id%2)
		mustExec(t, s, fmt.Sprintf("INSERT INTO fb VALUES (%d, %d)", id, label))
		fresh.Train(cv.ff.ComputeFeature(texts[id]), int(label))
		if id%10 == 9 {
			insert(60 + id)
		}
	}
	if plan := fmt.Sprint(mustExec(t, s, "EXPLAIN SELECT class FROM odv WHERE id = 3").Rows); !strings.Contains(plan, "snapshot") {
		t.Fatalf("engined on-disk plan = %s, want a snapshot read", plan)
	}
	for id, text := range texts {
		got := mustExec(t, s, fmt.Sprintf("SELECT class FROM odv WHERE id = %d", id))
		want := fmt.Sprint(fresh.Model().Predict(cv.ff.ComputeFeature(text)))
		if len(got.Rows) != 1 || got.Rows[0][0] != want {
			t.Fatalf("LABEL %d = %v, from-scratch model says %s", id, got.Rows, want)
		}
	}
}

// TestAttachEngineViaSQL drives the per-view engine lifecycle
// entirely through SQL: inserts route through the engine while
// attached (synchronously — read-your-writes holds for the following
// SELECTs), and DETACH drains and resumes triggers.
func TestAttachEngineViaSQL(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE p (id BIGINT, txt TEXT) KEY id")
	mustExec(t, s, "CREATE TABLE fb (id BIGINT, label BIGINT) KEY id")
	mustExec(t, s, "INSERT INTO p VALUES (1,'alpha beta'),(2,'gamma delta'),(3,'alpha gamma')")
	mustExec(t, s, `CREATE CLASSIFICATION VIEW v KEY id
		ENTITIES FROM p KEY id EXAMPLES FROM fb KEY id LABEL l
		FEATURE FUNCTION tf_bag_of_words`)
	mustExec(t, s, "ATTACH ENGINE TO v QUEUE 64 BATCH 16")
	if s.DB().AttachedEngine("v") == nil {
		t.Fatal("engine not registered")
	}
	if _, err := s.Exec("ATTACH ENGINE TO v"); err == nil {
		t.Fatal("double attach accepted")
	}
	mustExec(t, s, "INSERT INTO fb VALUES (1,1),(2,-1)")
	mustExec(t, s, "INSERT INTO p VALUES (4,'alpha alpha beta')")
	r := mustExec(t, s, "SELECT class FROM v WHERE id = 4")
	if len(r.Rows) != 1 || r.Rows[0][0] != "1" {
		t.Fatalf("engined point read: %+v", r)
	}
	r = mustExec(t, s, "SELECT id, class FROM v")
	if len(r.Rows) != 4 {
		t.Fatalf("engined full scan: %+v", r)
	}
	mustExec(t, s, "DETACH ENGINE FROM v")
	if s.DB().AttachedEngine("v") != nil {
		t.Fatal("engine still registered after detach")
	}
	mustExec(t, s, "INSERT INTO fb VALUES (3,1)")
	r = mustExec(t, s, "SELECT COUNT(*) FROM v WHERE class = 1")
	if len(r.Rows) != 1 {
		t.Fatalf("count after detach: %+v", r)
	}
}

// TestMostUncertainNonPositiveK: asking an engined view for k ≤ 0
// boundary ids returns none, exactly like the live view, instead of
// panicking in the published snapshot's read.
func TestMostUncertainNonPositiveK(t *testing.T) {
	s := newSession(t)
	buildQueryFixture(t, s, "qv", "HAZY", 12)
	for _, engined := range []bool{false, true} {
		if engined {
			mustExec(t, s, "ATTACH ENGINE TO qv")
		}
		for _, k := range []int{-1, 0} {
			ids, err := mustBind(t, s, "qv").MostUncertain(k)
			if err != nil || ids != nil {
				t.Fatalf("engined=%v: MostUncertain(qv, %d) = %v, %v; want nil, nil", engined, k, ids, err)
			}
		}
	}
}

// TestAutomaticModelSelection: a view declared without USING runs the
// paper's §2.1 model selection over the warm examples when enough are
// present, and falls back to the SVM otherwise.
func TestAutomaticModelSelection(t *testing.T) {
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	papers, _ := db.CreateEntityTable("papers", "title")
	feedback, _ := db.CreateExampleTable("feedback")
	r := rand.New(rand.NewSource(41))
	for id := int64(0); id < 40; id++ {
		if err := papers.InsertText(id, title(r, id%2 == 0)); err != nil {
			t.Fatal(err)
		}
	}

	// Too few warm examples: default SVM, no selection.
	v1, err := db.CreateClassificationView(ViewSpec{
		Name: "few", Entities: "papers", Examples: "feedback",
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := v1.Method(); got != learn.MethodSVM {
		t.Fatalf("method with no warm examples = %q, want %q", got, learn.MethodSVM)
	}

	// Warm the examples table past the selection threshold and
	// declare another automatic view: the selection runs and lands on
	// a valid method.
	for id := int64(0); id < int64(autoSelectMin+8); id++ {
		label := -1
		if id%2 == 0 {
			label = 1
		}
		if err := feedback.InsertExample(id, label); err != nil {
			t.Fatal(err)
		}
	}
	v2, err := db.CreateClassificationView(ViewSpec{
		Name: "auto", Entities: "papers", Examples: "feedback",
	})
	if err != nil {
		t.Fatal(err)
	}
	switch v2.Method() {
	case learn.MethodSVM, learn.MethodLogistic, learn.MethodRidge:
	default:
		t.Fatalf("selected method %q", v2.Method())
	}
	// An explicit USING clause is never overridden.
	v3, err := db.CreateClassificationView(ViewSpec{
		Name: "explicit", Entities: "papers", Examples: "feedback", Method: "ridge",
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := v3.Method(); got != learn.MethodRidge {
		t.Fatalf("explicit method = %q, want ridge", got)
	}
	// The selection is deterministic: a second DB over the same data
	// picks the same method (what makes manifest recovery stable).
	dir2 := t.TempDir()
	db2, err := Open(dir2)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	p2, _ := db2.CreateEntityTable("papers", "title")
	f2, _ := db2.CreateExampleTable("feedback")
	papers.Scan(func(id int64, text string) error { return p2.InsertText(id, text) })
	feedback.Scan(func(id int64, label int) error { return f2.InsertExample(id, label) })
	v4, err := db2.CreateClassificationView(ViewSpec{
		Name: "auto", Entities: "papers", Examples: "feedback",
	})
	if err != nil {
		t.Fatal(err)
	}
	if v4.Method() != v2.Method() {
		t.Fatalf("selection not deterministic: %q vs %q", v4.Method(), v2.Method())
	}
}

// TestConcurrentScanAndEngineWrites: SQL base-table scans must be
// safe against the engine goroutine durably inserting into the same
// tables (the relation layer's internal locks) — run under -race.
func TestConcurrentScanAndEngineWrites(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE p (id BIGINT, txt TEXT) KEY id")
	mustExec(t, s, "CREATE TABLE fb (id BIGINT, label BIGINT) KEY id")
	mustExec(t, s, "INSERT INTO p VALUES (1,'alpha beta'),(2,'gamma delta')")
	mustExec(t, s, `CREATE CLASSIFICATION VIEW v KEY id
		ENTITIES FROM p KEY id EXAMPLES FROM fb KEY id LABEL l
		FEATURE FUNCTION tf_bag_of_words`)
	mustExec(t, s, "ATTACH ENGINE TO v")

	done := make(chan error, 1)
	go func() {
		bv, err := s.DB().NewSession().Bind("v")
		for id := int64(100); err == nil && id < 200; id++ {
			err = bv.AddAsync(id, "alpha gamma text")
		}
		if err == nil {
			err = bv.Flush()
		}
		done <- err
	}()
	for i := 0; i < 100; i++ {
		if _, err := s.Exec("SELECT COUNT(*) FROM p"); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	r := mustExec(t, s, "SELECT COUNT(*) FROM p")
	if r.Rows[0][0] != "102" {
		t.Fatalf("entities after concurrent ingest = %v", r.Rows)
	}
}

// TestPendingViewRecovery: a manifest view over an app-registered
// feature function must not brick Open — it is deferred until the
// app registers the function and calls RecoverPendingViews.
func TestPendingViewRecovery(t *testing.T) {
	dir := t.TempDir()
	{
		db, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		db.Registry().Register("custom_tfidf", func() feature.Func { return feature.NewTFIDF() })
		papers, _ := db.CreateEntityTable("papers", "title")
		if _, err := db.CreateExampleTable("feedback"); err != nil {
			t.Fatal(err)
		}
		papers.InsertText(1, "relational database query optimization")
		if _, err := db.CreateClassificationView(ViewSpec{
			Name: "v", Entities: "papers", Examples: "feedback", FeatureFunction: "custom_tfidf",
		}); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Reopen WITHOUT the custom function: Open succeeds, the view is
	// pending, the tables are live.
	db, err := Open(dir)
	if err != nil {
		t.Fatalf("Open bricked by unregistered feature function: %v", err)
	}
	defer db.Close()
	if got := db.PendingViews(); len(got) != 1 || got[0] != "v" {
		t.Fatalf("PendingViews = %v", got)
	}
	if _, err := db.View("v"); err == nil {
		t.Fatal("pending view available before recovery")
	}
	// Register and recover.
	db.Registry().Register("custom_tfidf", func() feature.Func { return feature.NewTFIDF() })
	if err := db.RecoverPendingViews(); err != nil {
		t.Fatal(err)
	}
	if got := db.PendingViews(); len(got) != 0 {
		t.Fatalf("still pending after recovery: %v", got)
	}
	v, err := db.View("v")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Core().Label(1); err != nil {
		t.Fatal(err)
	}
}

// TestPerSessionFlushEmbedded: two embedded sessions over one engined
// view; each session's Flush reports only its own async failures.
func TestPerSessionFlushEmbedded(t *testing.T) {
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	papers, _ := db.CreateEntityTable("papers", "title")
	if _, err := db.CreateExampleTable("feedback"); err != nil {
		t.Fatal(err)
	}
	papers.InsertText(1, "relational database query optimization")
	if _, err := db.CreateClassificationView(ViewSpec{
		Name: "v", Entities: "papers", Examples: "feedback",
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AttachEngine("v", EngineOptions{}); err != nil {
		t.Fatal(err)
	}
	s1, s2 := db.NewSession(), db.NewSession()
	b1, b2 := mustBind(t, s1, "v"), mustBind(t, s2, "v")

	if err := b1.TrainAsync(999, 1); err != nil { // unknown entity: fails at apply
		t.Fatal(err)
	}
	if err := b2.TrainAsync(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := b2.Flush(); err != nil {
		t.Fatalf("session 2 flush collected a foreign error: %v", err)
	}
	if err := b1.Flush(); err == nil {
		t.Fatal("session 1 flush lost its own error")
	}
	if err := b1.Flush(); err != nil {
		t.Fatalf("error reported twice: %v", err)
	}
	if label, err := mustBind(t, s2, "v").Label(1); err != nil || label != 1 {
		t.Fatalf("Label = %d, %v", label, err)
	}

	// Across a detach and a re-attach each session keeps its token: on
	// the new engine a failure still reaches only its own session.
	if err := db.DetachEngine("v"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AttachEngine("v", EngineOptions{}); err != nil {
		t.Fatal(err)
	}
	b1, b2 = mustBind(t, s1, "v"), mustBind(t, s2, "v")
	if err := b2.TrainAsync(998, 1); err != nil { // unknown entity: fails at apply
		t.Fatal(err)
	}
	if err := b1.AddAsync(2, "operating system kernel scheduling"); err != nil {
		t.Fatal(err)
	}
	if err := b1.Flush(); err != nil {
		t.Fatalf("after re-attach, session 1 flush collected a foreign error: %v", err)
	}
	if err := b2.Flush(); err == nil {
		t.Fatal("after re-attach, session 2 flush lost its own error")
	}
	if err := b2.Flush(); err != nil {
		t.Fatalf("after re-attach, error reported twice: %v", err)
	}
}

// TestBindReadsOwnersVersion: Bind serves reads from the view's
// published version only while an owner — an attached engine or a
// replica's applier — mutates the live structure. AttachEngine
// publishes the engine's first version before it stores the engine;
// a primary view caught in that state must still bind live, so its
// writes are applied instead of refused as read-only.
func TestBindReadsOwnersVersion(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE p (id BIGINT, txt TEXT) KEY id")
	mustExec(t, s, "CREATE TABLE fb (id BIGINT, label BIGINT) KEY id")
	mustExec(t, s, "INSERT INTO p VALUES (1,'alpha beta'),(2,'gamma delta')")
	mustExec(t, s, `CREATE CLASSIFICATION VIEW v KEY id
		ENTITIES FROM p KEY id EXAMPLES FROM fb KEY id LABEL l
		FEATURE FUNCTION tf_bag_of_words`)
	db := s.DB()
	cv, err := db.View("v")
	if err != nil {
		t.Fatal(err)
	}
	version, err := cv.view.(core.Snapshotter).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name                string
		published, readOnly bool
		live                bool
	}{
		{"primary", false, false, true},
		{"primary with a published version", true, false, true},
		{"replica", true, true, false},
		{"replica without a published version", false, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.published {
				cv.pub.Store(version)
			}
			db.readOnly.Store(tc.readOnly)
			defer func() {
				cv.pub.Store(nil)
				db.readOnly.Store(false)
			}()
			bv := mustBind(t, s, "v")
			if bv.Live() != tc.live {
				t.Fatalf("Live() = %v, want %v", bv.Live(), tc.live)
			}
			if !tc.live && bv.snap != version {
				t.Fatal("bound a version other than the published one")
			}
		})
	}
	// The primary binds live with a version published: its TRAIN is
	// applied to the view.
	cv.pub.Store(version)
	err = mustBind(t, s, "v").Train(1, 1)
	cv.pub.Store(nil)
	if err != nil {
		t.Fatalf("TRAIN on a primary with a published version: %v", err)
	}
	if got := cv.Stats().Updates; got != 1 {
		t.Fatalf("updates = %d, want 1", got)
	}
	// With an engine attached, Bind reads the version it published.
	mustExec(t, s, "ATTACH ENGINE TO v")
	if bv := mustBind(t, s, "v"); bv.Live() || bv.snap != cv.pub.Load() {
		t.Fatal("an engined view did not bind its published version")
	}
}

// TestClassifyDoesNotGrowVocabulary: CLASSIFY is a read. Featurizing
// its text must not assign vocabulary indices — 10,000 reads of novel
// words on an engined view leave the vocabulary as it was — and each
// answer still equals the label a featurizer that does grow its
// vocabulary gives under the same model.
func TestClassifyDoesNotGrowVocabulary(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE p (id BIGINT, txt TEXT) KEY id")
	mustExec(t, s, "CREATE TABLE fb (id BIGINT, label BIGINT) KEY id")
	r := rand.New(rand.NewSource(5))
	for id := int64(0); id < 40; id++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO p VALUES (%d, '%s')", id, title(r, id%2 == 0)))
	}
	mustExec(t, s, `CREATE CLASSIFICATION VIEW v KEY id
		ENTITIES FROM p KEY id EXAMPLES FROM fb KEY id LABEL l
		FEATURE FUNCTION tf_bag_of_words USING SVM`)
	mustExec(t, s, "ATTACH ENGINE TO v")
	for id := int64(0); id < 20; id++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO fb VALUES (%d, %d)", id, 1-2*(id%2)))
	}
	cv, err := s.DB().View("v")
	if err != nil {
		t.Fatal(err)
	}
	vocab := cv.ff.(*feature.TFBagOfWords).Vocab
	size := vocab.Size()
	// The growing reference: the same corpus pass, in table order, then
	// each read's text folded in before it is featurized.
	ref := feature.NewTFBagOfWords()
	var corpus []string
	if err := cv.Entities().Scan(func(_ int64, text string) error { corpus = append(corpus, text); return nil }); err != nil {
		t.Fatal(err)
	}
	ref.ComputeStats(corpus)
	bv := mustBind(t, s, "v")
	model := bv.snap.Model()
	for i := 0; i < 10000; i++ {
		text := fmt.Sprintf("databases w%d", i)
		got, err := bv.Classify(text)
		if err != nil {
			t.Fatal(err)
		}
		ref.ComputeStatsInc(text)
		if want := model.Predict(ref.ComputeFeature(text)); got != want {
			t.Fatalf("CLASSIFY %q = %d, growing reference %d", text, got, want)
		}
	}
	if got := vocab.Size(); got != size {
		t.Fatalf("10,000 CLASSIFY reads grew the vocabulary from %d to %d terms", size, got)
	}
}
