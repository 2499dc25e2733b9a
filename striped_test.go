package hazy

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hazy/internal/core"
)

// buildStripedFixture declares a corpus and two identical views over
// it — one unstriped, one PARTITIONS 4 — plus n warm examples each.
func buildStripedFixture(t *testing.T, s *Session, n int) {
	t.Helper()
	// Identical twin corpora: two engines may not share tables, so the
	// striped and unstriped views each get their own copies.
	mustExec(t, s, "CREATE TABLE sp (id BIGINT, title TEXT) KEY id")
	mustExec(t, s, "CREATE TABLE sp2 (id BIGINT, title TEXT) KEY id")
	mustExec(t, s, "CREATE TABLE sf (id BIGINT, label BIGINT) KEY id")
	mustExec(t, s, "CREATE TABLE sf2 (id BIGINT, label BIGINT) KEY id")
	r := rand.New(rand.NewSource(23))
	for id := int64(0); id < 80; id++ {
		line := title(r, id%2 == 0)
		mustExec(t, s, fmt.Sprintf("INSERT INTO sp VALUES (%d, '%s')", id, line))
		mustExec(t, s, fmt.Sprintf("INSERT INTO sp2 VALUES (%d, '%s')", id, line))
	}
	mustExec(t, s, `CREATE CLASSIFICATION VIEW flat KEY id
		ENTITIES FROM sp KEY id EXAMPLES FROM sf KEY id LABEL label
		FEATURE FUNCTION tf_bag_of_words USING SVM`)
	mustExec(t, s, `CREATE CLASSIFICATION VIEW banded KEY id
		ENTITIES FROM sp2 KEY id EXAMPLES FROM sf2 KEY id LABEL label
		FEATURE FUNCTION tf_bag_of_words USING SVM PARTITIONS 4`)
	for id := int64(0); id < int64(n); id++ {
		label := -1
		if id%2 == 0 {
			label = 1
		}
		mustExec(t, s, fmt.Sprintf("INSERT INTO sf VALUES (%d, %d)", id, label))
		mustExec(t, s, fmt.Sprintf("INSERT INTO sf2 VALUES (%d, %d)", id, label))
	}
}

// TestStripedViewViaSQL cross-checks the striped layout against its
// unstriped twin through the SQL surface: identical labels, members,
// counts, and eps-band results for the same workload, with the
// single-leaf eps-range plan pinned in EXPLAIN — live and engined.
func TestStripedViewViaSQL(t *testing.T) {
	s := newSession(t)
	buildStripedFixture(t, s, 16)

	cv, err := s.DB().View("banded")
	if err != nil {
		t.Fatal(err)
	}
	sv, ok := cv.Core().(*core.StripedView)
	if !ok || sv.Stripes() != 4 {
		t.Fatalf("banded core = %T, want *core.StripedView with 4 stripes", cv.Core())
	}

	same := func(stmt string) {
		t.Helper()
		a := mustExec(t, s, strings.ReplaceAll(stmt, "$V", "flat"))
		b := mustExec(t, s, strings.ReplaceAll(stmt, "$V", "banded"))
		if fmt.Sprint(a.Rows) != fmt.Sprint(b.Rows) {
			t.Fatalf("%s diverges:\nflat   %v\nbanded %v", stmt, a.Rows, b.Rows)
		}
	}
	queries := []string{
		"SELECT COUNT(*) FROM $V WHERE class = 1",
		"SELECT COUNT(*) FROM $V WHERE class = -1",
		"SELECT id FROM $V WHERE class = 1",
		"SELECT id, class FROM $V ORDER BY id DESC LIMIT 10",
		"SELECT class FROM $V WHERE id = 33",
		"SELECT COUNT(*) FROM $V WHERE eps >= -100.0 AND eps <= 100.0",
	}
	for _, q := range queries {
		same(q)
	}

	// The live striped plan is one eps-range leaf: the view gathers
	// its stripes inside the cursor, as a snapshot does.
	r := mustExec(t, s, "EXPLAIN SELECT id FROM banded WHERE eps >= -1.0 AND eps <= 1.0")
	plan := fmt.Sprint(r.Rows)
	if !strings.Contains(plan, "EpsRange(banded, live") {
		t.Fatalf("live striped plan = %s", plan)
	}

	// Engined: the snapshot gathers its stripes inside one cursor, so
	// plans revert to the single-cursor shapes while answers stay
	// identical.
	mustExec(t, s, "ATTACH ENGINE TO banded")
	mustExec(t, s, "ATTACH ENGINE TO flat")
	for id := int64(16); id < 24; id++ {
		label := -1
		if id%2 == 0 {
			label = 1
		}
		mustExec(t, s, fmt.Sprintf("INSERT INTO sf VALUES (%d, %d)", id, label))
		mustExec(t, s, fmt.Sprintf("INSERT INTO sf2 VALUES (%d, %d)", id, label))
	}
	for _, q := range queries {
		same(q)
	}
	r = mustExec(t, s, "EXPLAIN SELECT id FROM banded WHERE eps >= -1.0 AND eps <= 1.0")
	plan = fmt.Sprint(r.Rows)
	if !strings.Contains(plan, "EpsRange(banded, snapshot") {
		t.Fatalf("engined striped plan = %s", plan)
	}
}

// TestStripedRequiresHazy pins the declaration constraint: striping
// composes with every architecture but needs the eps clustering, so
// only STRATEGY NAIVE rejects a PARTITIONS clause.
func TestStripedRequiresHazy(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE rp (id BIGINT, title TEXT) KEY id")
	mustExec(t, s, "CREATE TABLE rf (id BIGINT, label BIGINT) KEY id")
	mustExec(t, s, "INSERT INTO rp VALUES (1, 'query optimizer join index')")
	bad := `CREATE CLASSIFICATION VIEW x KEY id ENTITIES FROM rp EXAMPLES FROM rf STRATEGY NAIVE PARTITIONS 2`
	if _, err := s.Exec(bad); err == nil || !strings.Contains(err.Error(), "PARTITIONS") {
		t.Fatalf("%s: err = %v, want PARTITIONS constraint error", bad, err)
	}
	// Every architecture stripes under the Hazy strategy.
	for i, arch := range []string{"MM", "OD", "HYBRID"} {
		stmt := fmt.Sprintf(`CREATE CLASSIFICATION VIEW ok%d KEY id
			ENTITIES FROM rp KEY id EXAMPLES FROM rf KEY id LABEL label
			ARCHITECTURE %s PARTITIONS 2`, i, arch)
		mustExec(t, s, stmt)
		cv, err := s.DB().View(fmt.Sprintf("ok%d", i))
		if err != nil {
			t.Fatal(err)
		}
		sv, ok := cv.Core().(*core.StripedView)
		if !ok || sv.Stripes() != 2 {
			t.Fatalf("ARCHITECTURE %s PARTITIONS 2: core = %T, want 2-stripe *core.StripedView", arch, cv.Core())
		}
	}
}

// TestStripedDiskHybridViaSQL cross-checks the disk-resident striped
// layouts against the unstriped main-memory twin through the SQL
// surface, pins the live eps-range plan, and reopens the database to
// prove the striped on-disk declaration (stripe subdirectories and
// all) rides the manifest.
func TestStripedDiskHybridViaSQL(t *testing.T) {
	for _, arch := range []string{"OD", "HYBRID"} {
		t.Run(arch, func(t *testing.T) {
			dir := t.TempDir()
			db, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			s := db.NewSession()
			mustExec(t, s, "CREATE TABLE dp (id BIGINT, title TEXT) KEY id")
			mustExec(t, s, "CREATE TABLE dp2 (id BIGINT, title TEXT) KEY id")
			mustExec(t, s, "CREATE TABLE df (id BIGINT, label BIGINT) KEY id")
			mustExec(t, s, "CREATE TABLE df2 (id BIGINT, label BIGINT) KEY id")
			r := rand.New(rand.NewSource(47))
			for id := int64(0); id < 60; id++ {
				line := title(r, id%2 == 0)
				mustExec(t, s, fmt.Sprintf("INSERT INTO dp VALUES (%d, '%s')", id, line))
				mustExec(t, s, fmt.Sprintf("INSERT INTO dp2 VALUES (%d, '%s')", id, line))
			}
			mustExec(t, s, `CREATE CLASSIFICATION VIEW flat KEY id
				ENTITIES FROM dp KEY id EXAMPLES FROM df KEY id LABEL label
				FEATURE FUNCTION tf_bag_of_words USING SVM`)
			mustExec(t, s, fmt.Sprintf(`CREATE CLASSIFICATION VIEW banded KEY id
				ENTITIES FROM dp2 KEY id EXAMPLES FROM df2 KEY id LABEL label
				FEATURE FUNCTION tf_bag_of_words USING SVM
				ARCHITECTURE %s PARTITIONS 3`, arch))
			for id := int64(0); id < 12; id++ {
				label := 1 - 2*(id%2)
				mustExec(t, s, fmt.Sprintf("INSERT INTO df VALUES (%d, %d)", id, label))
				mustExec(t, s, fmt.Sprintf("INSERT INTO df2 VALUES (%d, %d)", id, label))
			}

			same := func(stmt string) {
				t.Helper()
				a := mustExec(t, s, strings.ReplaceAll(stmt, "$V", "flat"))
				b := mustExec(t, s, strings.ReplaceAll(stmt, "$V", "banded"))
				if fmt.Sprint(a.Rows) != fmt.Sprint(b.Rows) {
					t.Fatalf("%s diverges:\nflat   %v\nbanded %v", stmt, a.Rows, b.Rows)
				}
			}
			queries := []string{
				"SELECT COUNT(*) FROM $V WHERE class = 1",
				"SELECT id FROM $V WHERE class = 1",
				"SELECT id, class FROM $V ORDER BY id DESC LIMIT 10",
				"SELECT class FROM $V WHERE id = 17",
				"SELECT COUNT(*) FROM $V WHERE eps >= -100.0 AND eps <= 100.0",
			}
			for _, q := range queries {
				same(q)
			}
			plan := fmt.Sprint(mustExec(t, s, "EXPLAIN SELECT id FROM banded WHERE eps >= -1.0 AND eps <= 1.0").Rows)
			if !strings.Contains(plan, "EpsRange(banded, live") {
				t.Fatalf("live striped %s plan = %s", arch, plan)
			}

			want := mustExec(t, s, "SELECT id FROM banded WHERE class = 1")
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			cv, err := db2.View("banded")
			if err != nil {
				t.Fatal(err)
			}
			sv, ok := cv.Core().(*core.StripedView)
			if !ok || sv.Stripes() != 3 {
				t.Fatalf("reopened banded core = %T, want 3-stripe *core.StripedView", cv.Core())
			}
			got := mustExec(t, db2.NewSession(), "SELECT id FROM banded WHERE class = 1")
			if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
				t.Fatalf("members after reopen: %v, want %v", got.Rows, want.Rows)
			}
		})
	}
}

// TestStripedPersistsAcrossReopen: the resolved stripe count rides
// the catalog manifest, so a reopen — without any DefaultPartitions
// option — re-declares the view striped.
func TestStripedPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenWith(dir, OpenOptions{DefaultPartitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE pp (id BIGINT, title TEXT) KEY id")
	mustExec(t, s, "CREATE TABLE pf (id BIGINT, label BIGINT) KEY id")
	r := rand.New(rand.NewSource(5))
	for id := int64(0); id < 30; id++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO pp VALUES (%d, '%s')", id, title(r, id%2 == 0)))
	}
	// No PARTITIONS clause: picks up the database default.
	mustExec(t, s, `CREATE CLASSIFICATION VIEW pv KEY id
		ENTITIES FROM pp KEY id EXAMPLES FROM pf KEY id LABEL label`)
	for id := int64(0); id < 8; id++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO pf VALUES (%d, %d)", id, 1-2*(id%2)))
	}
	cv, err := db.View("pv")
	if err != nil {
		t.Fatal(err)
	}
	if sv, ok := cv.Core().(*core.StripedView); !ok || sv.Stripes() != 4 {
		t.Fatalf("pv core = %T, want 4 stripes from DefaultPartitions", cv.Core())
	}
	want := mustExec(t, s, "SELECT id FROM pv WHERE class = 1")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir) // note: no DefaultPartitions this time
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	cv2, err := db2.View("pv")
	if err != nil {
		t.Fatal(err)
	}
	if sv, ok := cv2.Core().(*core.StripedView); !ok || sv.Stripes() != 4 {
		t.Fatalf("reopened pv core = %T, want 4 stripes from the manifest", cv2.Core())
	}
	got := mustExec(t, db2.NewSession(), "SELECT id FROM pv WHERE class = 1")
	if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
		t.Fatalf("members after reopen: %v, want %v", got.Rows, want.Rows)
	}
}

// TestClassifyUntrainedViewErrors covers the serving contract on a
// freshly declared, never-trained view: CLASSIFY-shaped reads error
// out loud (live and engined) while Label still answers.
func TestClassifyUntrainedViewErrors(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE up (id BIGINT, title TEXT) KEY id")
	mustExec(t, s, "CREATE TABLE uf (id BIGINT, label BIGINT) KEY id")
	mustExec(t, s, "INSERT INTO up VALUES (1, 'relational query optimization')")
	mustExec(t, s, `CREATE CLASSIFICATION VIEW uv KEY id
		ENTITIES FROM up KEY id EXAMPLES FROM uf KEY id LABEL label`)

	for _, engined := range []bool{false, true} {
		if engined {
			mustExec(t, s, "ATTACH ENGINE TO uv")
		}
		bv, err := s.Bind("uv")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bv.Classify("query optimization"); err == nil || !strings.Contains(err.Error(), "untrained") {
			t.Fatalf("engined=%v: Classify on untrained view: err = %v, want untrained error", engined, err)
		}
		if _, err := bv.Label(1); err != nil {
			t.Fatalf("engined=%v: Label on untrained view: %v", engined, err)
		}
	}
	// Training flips Classify to serving.
	mustExec(t, s, "INSERT INTO uf VALUES (1, 1)")
	if got, err := s.Classify("uv", "relational query optimization"); err != nil || got != 1 {
		t.Fatalf("Classify after train = %d, %v", got, err)
	}
}
