package hazy

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"hazy/internal/core"
	"hazy/internal/exec"
)

// buildQueryFixture declares a two-topic corpus, a hazy view over it,
// and n warm training examples.
func buildQueryFixture(t *testing.T, s *Session, view string, strategy string, n int) {
	t.Helper()
	mustExec(t, s, "CREATE TABLE qp (id BIGINT, title TEXT) KEY id")
	mustExec(t, s, "CREATE TABLE qf (id BIGINT, label BIGINT) KEY id")
	r := rand.New(rand.NewSource(17))
	for id := int64(0); id < 60; id++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO qp VALUES (%d, '%s')", id, title(r, id%2 == 0)))
	}
	mustExec(t, s, fmt.Sprintf(`CREATE CLASSIFICATION VIEW %s KEY id
		ENTITIES FROM qp KEY id EXAMPLES FROM qf KEY id LABEL label
		FEATURE FUNCTION tf_bag_of_words USING SVM STRATEGY %s`, view, strategy))
	for id := int64(0); id < int64(n); id++ {
		label := -1
		if id%2 == 0 {
			label = 1
		}
		mustExec(t, s, fmt.Sprintf("INSERT INTO qf VALUES (%d, %d)", id, label))
	}
}

// TestEpsColumnAndOrderedReads exercises the dialect growth — the eps
// view column, ORDER BY, LIMIT — against a real clustered view and
// checks the SQL answers agree with the Go-level surfaces, live and
// engined.
func TestEpsColumnAndOrderedReads(t *testing.T) {
	s := newSession(t)
	buildQueryFixture(t, s, "qv", "HAZY", 12)
	cv, err := s.DB().View("qv")
	if err != nil {
		t.Fatal(err)
	}

	for _, engined := range []bool{false, true} {
		if engined {
			mustExec(t, s, "ATTACH ENGINE TO qv")
		}
		origin := map[bool]string{false: "live", true: "snapshot"}[engined]

		// eps point read matches ClassView.Eps.
		r := mustExec(t, s, "SELECT eps FROM qv WHERE id = 7")
		eps, err := cv.Core().(core.EpsIndexed).EpsOf(7)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Rows) != 1 || r.Rows[0][0] != strconv.FormatFloat(eps, 'g', -1, 64) {
			t.Fatalf("engined=%v: SELECT eps WHERE id=7 = %+v, want %g", engined, r.Rows, eps)
		}

		// The eps-range scan returns exactly the full scan filtered to
		// the band, in eps order.
		full := mustExec(t, s, "SELECT id, class, eps FROM qv")
		band := mustExec(t, s, "SELECT id, eps FROM qv WHERE eps >= -0.2 AND eps <= 0.2")
		want := map[string]bool{}
		for _, row := range full.Rows {
			if e, _ := strconv.ParseFloat(row[2], 64); e >= -0.2 && e <= 0.2 {
				want[row[0]] = true
			}
		}
		if len(band.Rows) != len(want) {
			t.Fatalf("engined=%v: eps band %d rows, want %d", engined, len(band.Rows), len(want))
		}
		for i, row := range band.Rows {
			if !want[row[0]] {
				t.Fatalf("engined=%v: unexpected band row %v", engined, row)
			}
			if i > 0 {
				prev, _ := strconv.ParseFloat(band.Rows[i-1][1], 64)
				cur, _ := strconv.ParseFloat(row[1], 64)
				if cur < prev {
					t.Fatalf("engined=%v: band not eps-ascending at %d", engined, i)
				}
			}
		}

		// ORDER BY ABS(eps) LIMIT k is the UNCERTAIN verb.
		r = mustExec(t, s, "SELECT id FROM qv ORDER BY ABS(eps) LIMIT 5")
		ids, err := mustBind(t, s, "qv").MostUncertain(5)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Rows) != len(ids) {
			t.Fatalf("engined=%v: uncertain rows %v vs %v", engined, r.Rows, ids)
		}
		for i, id := range ids {
			if r.Rows[i][0] != strconv.FormatInt(id, 10) {
				t.Fatalf("engined=%v: uncertain row %d = %v, want %d", engined, i, r.Rows[i], id)
			}
		}

		// ORDER BY id DESC LIMIT walks the tail.
		r = mustExec(t, s, "SELECT id FROM qv ORDER BY id DESC LIMIT 3")
		if len(r.Rows) != 3 || r.Rows[0][0] != "59" || r.Rows[2][0] != "57" {
			t.Fatalf("engined=%v: order desc limit = %+v", engined, r.Rows)
		}

		// An inverted eps interval is empty, not a crash; LIMIT 0
		// suppresses even the COUNT row.
		r = mustExec(t, s, "SELECT id FROM qv WHERE eps >= 1.0 AND eps <= -1.0")
		if len(r.Rows) != 0 {
			t.Fatalf("engined=%v: inverted eps range = %+v", engined, r.Rows)
		}
		r = mustExec(t, s, "SELECT COUNT(*) FROM qv WHERE class = 1 LIMIT 0")
		if len(r.Rows) != 0 {
			t.Fatalf("engined=%v: count limit 0 = %+v", engined, r.Rows)
		}

		// EXPLAIN names the origin the plan reads from.
		for stmt, wantPlan := range map[string]string{
			"EXPLAIN SELECT class FROM qv WHERE id = 3":           "PointRead(qv, " + origin + ", id=3)",
			"EXPLAIN SELECT id FROM qv WHERE class = 1":           "MembersScan(qv, " + origin + ")",
			"EXPLAIN SELECT COUNT(*) FROM qv WHERE class = 1":     "MembersCount(qv, " + origin + ")",
			"EXPLAIN SELECT id FROM qv WHERE eps <= 0.5":          "EpsRange(qv, " + origin + ", eps <= 0.5)",
			"EXPLAIN SELECT id FROM qv ORDER BY ABS(eps) LIMIT 4": "Uncertain(qv, " + origin + ", k=4)",
		} {
			r := mustExec(t, s, stmt)
			joined := ""
			for _, row := range r.Rows {
				joined += row[0] + "\n"
			}
			if !strings.Contains(joined, wantPlan) {
				t.Fatalf("engined=%v: %s\nplan:\n%s\nmissing %q", engined, stmt, joined, wantPlan)
			}
		}
	}

	// Selecting through Query streams the same rows Exec materializes.
	rows, err := s.Query("SELECT id, class FROM qv")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	res := mustExec(t, s, "SELECT id, class FROM qv")
	for i := 0; ; i++ {
		row, ok, err := rows.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if i != len(res.Rows) {
				t.Fatalf("Query streamed %d rows, Exec returned %d", i, len(res.Rows))
			}
			break
		}
		if strings.Join(row, ",") != strings.Join(res.Rows[i], ",") {
			t.Fatalf("row %d: Query %v vs Exec %v", i, row, res.Rows[i])
		}
	}
}

// TestEpsRequiresClustering: the naive strategy keeps no eps, and the
// planner says so instead of fabricating a column.
func TestEpsRequiresClustering(t *testing.T) {
	s := newSession(t)
	buildQueryFixture(t, s, "nv", "NAIVE", 4)
	for _, stmt := range []string{
		"SELECT eps FROM nv",
		"SELECT id FROM nv WHERE eps > 0",
		"SELECT id FROM nv ORDER BY ABS(eps) LIMIT 2",
		"EXPLAIN SELECT eps FROM nv",
	} {
		if _, err := s.Exec(stmt); err == nil || !strings.Contains(err.Error(), "eps") {
			t.Fatalf("%s → %v, want eps-clustering error", stmt, err)
		}
	}
	// Non-eps reads still plan fine over the naive layout.
	r := mustExec(t, s, "SELECT COUNT(*) FROM nv WHERE class = 1")
	if len(r.Rows) != 1 {
		t.Fatalf("naive members count: %+v", r)
	}
	if r := mustExec(t, s, "SELECT id, class FROM nv LIMIT 5"); len(r.Rows) != 5 {
		t.Fatalf("naive full scan limit: %+v", r)
	}
}

// TestConcurrentSQLScanVsEngineIngest races every snapshot-backed
// plan shape — full scan, eps range, members, point read, uncertain,
// plus table scans of the entity table the engine is inserting into —
// against a live engine's async ingest. Run under -race this pins
// that SELECT streaming never touches mutable engine state.
func TestConcurrentSQLScanVsEngineIngest(t *testing.T) {
	// A small batch size forces every streaming statement through many
	// batch refills while the engine mutates underneath, so -race sees
	// the refill path, not just the first fill.
	defer exec.SetBatchSize(exec.BatchSize())
	exec.SetBatchSize(7)
	s := newSession(t)
	buildQueryFixture(t, s, "cv", "HAZY", 12)
	mustExec(t, s, "ATTACH ENGINE TO cv QUEUE 256 BATCH 32")
	db := s.DB()

	const writers, readers, per = 2, 4, 80
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws, err := db.NewSession().Bind("cv")
			if err != nil {
				errs <- err
				return
			}
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < per; i++ {
				id := int64(1000 + w*per + i)
				if err := ws.AddAsync(id, title(r, id%2 == 0)); err != nil {
					errs <- err
					return
				}
				// Examples are keyed by entity id: each writer trains a
				// disjoint slice of the warm corpus, once per id.
				if tid := int64(12 + w*24 + i); i < 24 {
					if err := ws.TrainAsync(tid, 1-2*int(tid%2)); err != nil {
						errs <- err
						return
					}
				}
			}
			errs <- ws.Flush()
		}(w)
	}
	stmts := []string{
		"SELECT id, class FROM cv",
		"SELECT id, eps FROM cv WHERE eps >= -0.5 AND eps <= 0.5",
		"SELECT COUNT(*) FROM cv WHERE class = 1",
		"SELECT class FROM cv WHERE id = 7",
		"SELECT id FROM cv ORDER BY ABS(eps) LIMIT 5",
		"SELECT id, eps FROM cv ORDER BY eps DESC LIMIT 7",
		"SELECT id FROM cv WHERE eps >= -0.5 LIMIT 9",
		"EXPLAIN SELECT id FROM cv WHERE eps > 0",
		"EXPLAIN ANALYZE SELECT COUNT(*) FROM cv WHERE eps >= -0.5 AND eps <= 0.5",
		"SELECT COUNT(*) FROM qp",
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rs := db.NewSession()
			for i := 0; i < per; i++ {
				if _, err := rs.Exec(stmts[(g+i)%len(stmts)]); err != nil {
					errs <- fmt.Errorf("%s: %w", stmts[(g+i)%len(stmts)], err)
					return
				}
			}
			errs <- nil
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Drain and check the final state is consistent end to end.
	mustExec(t, s, "DETACH ENGINE FROM cv")
	r := mustExec(t, s, "SELECT COUNT(*) FROM cv")
	if r.Rows[0][0] != strconv.Itoa(60+writers*per) {
		t.Fatalf("final entity count %v, want %d", r.Rows, 60+writers*per)
	}
}

// TestBatchSizeEndToEnd replays the dialect through the Session
// surface at batch sizes 1 and 7 and checks the rendered results are
// identical to the default 1024 — the SQL answer must not depend on
// where batch boundaries fall, live or engined, unstriped or over a
// 4-stripe view whose cursor merges its stripes.
func TestBatchSizeEndToEnd(t *testing.T) {
	defer exec.SetBatchSize(exec.BatchSize())
	stmts := []string{
		"SELECT id, class, eps FROM qv",
		"SELECT id, eps FROM qv WHERE eps >= -0.5 AND eps <= 0.5",
		"SELECT COUNT(*) FROM qv WHERE class = 1",
		"SELECT id FROM qv ORDER BY ABS(eps) LIMIT 5",
		"SELECT id, eps FROM qv ORDER BY eps DESC LIMIT 7",
		"SELECT id FROM qv WHERE eps >= -0.5 LIMIT 9",
		"SELECT id FROM qv ORDER BY id DESC LIMIT 3",
		"SELECT COUNT(*) FROM qp",
	}
	for _, strategy := range []string{"HAZY", "HAZY PARTITIONS 4"} {
		s := newSession(t)
		buildQueryFixture(t, s, "qv", strategy, 12)
		for _, engined := range []bool{false, true} {
			if engined {
				mustExec(t, s, "ATTACH ENGINE TO qv")
			}
			exec.SetBatchSize(1024)
			want := map[string][][]string{}
			for _, q := range stmts {
				want[q] = mustExec(t, s, q).Rows
			}
			for _, size := range []int{1, 7} {
				exec.SetBatchSize(size)
				for _, q := range stmts {
					got := mustExec(t, s, q).Rows
					if !reflect.DeepEqual(got, want[q]) {
						t.Errorf("%s engined=%v batch=%d %s:\nrows %v\nwant %v", strategy, engined, size, q, got, want[q])
					}
				}
			}
		}
	}
}

// TestEmptyViewQueries: a view over an empty entity table streams
// zero rows (and COUNT streams one zero) through every plan shape.
func TestEmptyViewQueries(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE zp (id BIGINT, title TEXT) KEY id")
	mustExec(t, s, "CREATE TABLE zf (id BIGINT, label BIGINT) KEY id")
	mustExec(t, s, `CREATE CLASSIFICATION VIEW zv KEY id
		ENTITIES FROM zp KEY id EXAMPLES FROM zf KEY id LABEL label
		FEATURE FUNCTION tf_bag_of_words USING SVM STRATEGY HAZY`)
	for stmt, wantRows := range map[string]int{
		"SELECT id, class, eps FROM zv":                      0,
		"SELECT id FROM zv WHERE eps >= -1.0 AND eps <= 1.0": 0,
		"SELECT id FROM zv WHERE class = 1":                  0,
		"SELECT id FROM zv ORDER BY ABS(eps) LIMIT 3":        0,
		"SELECT id FROM zv ORDER BY id DESC LIMIT 3":         0,
		"SELECT COUNT(*) FROM zv":                            1,
		"SELECT COUNT(*) FROM zv WHERE class = 1":            1,
		"SELECT COUNT(*) FROM zp":                            1,
	} {
		r := mustExec(t, s, stmt)
		if len(r.Rows) != wantRows {
			t.Errorf("%s: %d rows (%v), want %d", stmt, len(r.Rows), r.Rows, wantRows)
		}
		if wantRows == 1 && r.Rows[0][0] != "0" {
			t.Errorf("%s: count = %v, want 0", stmt, r.Rows[0])
		}
	}
}

// TestShowStatsAndExplainAnalyze covers the two SQL surfaces of the
// metrics registry: SHOW STATS renders the full registry (and FOR
// narrows to one view's collectors), and EXPLAIN ANALYZE both
// annotates the plan and accumulates per-operator totals into the
// registry's shared exec counters.
func TestShowStatsAndExplainAnalyze(t *testing.T) {
	s := newSession(t)
	buildQueryFixture(t, s, "qv", "HAZY", 12)

	// EXPLAIN ANALYZE annotates every node with deterministic rows=
	// and a wall time.
	r := mustExec(t, s, "EXPLAIN ANALYZE SELECT COUNT(*) FROM qv WHERE eps >= -100.0 AND eps <= 100.0")
	if len(r.Rows) != 2 {
		t.Fatalf("EXPLAIN ANALYZE plan = %+v, want 2 nodes", r.Rows)
	}
	if want := "Count (rows=1 "; !strings.HasPrefix(r.Rows[0][0], want) {
		t.Errorf("root node %q, want prefix %q", r.Rows[0][0], want)
	}
	if !strings.Contains(r.Rows[1][0], "(rows=60 ") || !strings.Contains(r.Rows[1][0], "time=") {
		t.Errorf("leaf node %q, want rows=60 and a time annotation", r.Rows[1][0])
	}

	// The analyzed run fed the shared per-operator registry counters.
	stats := mustExec(t, s, "SHOW STATS")
	var sawExecRows, sawViewMetric bool
	for _, row := range stats.Rows {
		if strings.HasPrefix(row[0], `hazy_exec_rows_total{op="Count"}`) && row[1] != "0" {
			sawExecRows = true
		}
		if strings.HasPrefix(row[0], "hazy_view_") {
			sawViewMetric = true
		}
	}
	if !sawExecRows {
		t.Errorf("SHOW STATS missing nonzero hazy_exec_rows_total{op=\"Count\"}:\n%+v", stats.Rows)
	}
	if !sawViewMetric {
		t.Errorf("SHOW STATS missing hazy_view_* collectors")
	}

	// FOR narrows to collectors labeled with the view's name, and
	// every returned series carries that label.
	forView := mustExec(t, s, "SHOW STATS FOR qv")
	if len(forView.Rows) == 0 || len(forView.Rows) >= len(stats.Rows) {
		t.Fatalf("SHOW STATS FOR qv returned %d rows (full registry has %d)", len(forView.Rows), len(stats.Rows))
	}
	for _, row := range forView.Rows {
		if !strings.Contains(row[0], `view="qv"`) {
			t.Errorf("SHOW STATS FOR qv row %q lacks the view label", row[0])
		}
	}
}
