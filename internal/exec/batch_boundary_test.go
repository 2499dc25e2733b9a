package exec

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"hazy/internal/sqlmini"
)

// mustBuild plans one statement against cat without running it.
func mustBuild(t *testing.T, cat Catalog, src string) *Plan {
	t.Helper()
	st, err := sqlmini.Parse(src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	plan, err := Build(st.(sqlmini.Select), cat)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return plan
}

// withBatchSize runs fn with the pipeline's batch size pinned to n,
// restoring the default afterward.
func withBatchSize(t *testing.T, n int, fn func()) {
	t.Helper()
	old := BatchSize()
	SetBatchSize(n)
	defer SetBatchSize(old)
	fn()
}

// dupCatalog builds a clustered view large enough that small batch
// sizes split every operator's stream mid-flight, with duplicate eps
// values placed so |eps| ties straddle batch boundaries.
func dupCatalog(rows int) *fakeCatalog {
	cat := testCatalog()
	var entries []fakeEntry
	for i := 0; i < rows; i++ {
		// eps ∈ {-1.0, -0.5, 0.5, 1.0} in ascending runs: every value
		// repeats rows/4 times, and ±0.5 / ±1.0 tie under ABS.
		eps := []float64{-1.0, -0.5, 0.5, 1.0}[i*4/rows]
		class := -1
		if eps > 0 {
			class = 1
		}
		entries = append(entries, fakeEntry{id: int64(1000 + i), eps: eps, class: class})
	}
	cat.views["dup"] = &fakeView{name: "dup", origin: "snapshot", clustered: true, entries: entries}
	cat.views["empty"] = &fakeView{name: "empty", origin: "snapshot", clustered: true}
	return cat
}

// TestBatchBoundaryEquivalence replays a query set that exercises
// every operator at batch sizes 1, 2, 3, and 7 and checks each run
// returns exactly the rows the default (1024) size does — LIMIT cut
// mid-batch, sort runs and ABS(eps) ties crossing batches, filters
// compacting across refills, and empty views all included.
func TestBatchBoundaryEquivalence(t *testing.T) {
	queries := []string{
		"SELECT id, class, eps FROM dup",
		"SELECT id, eps FROM dup WHERE eps >= -0.5 AND eps <= 0.5",
		"SELECT id FROM dup WHERE eps > 0 AND class = 1",
		"SELECT id, eps FROM dup ORDER BY ABS(eps)",
		"SELECT id, eps FROM dup ORDER BY eps DESC LIMIT 7",
		"SELECT id FROM dup ORDER BY id DESC LIMIT 5",
		"SELECT id FROM dup LIMIT 5",
		"SELECT id FROM dup WHERE eps >= -0.5 LIMIT 3",
		"SELECT COUNT(*) FROM dup WHERE eps >= 0",
		"SELECT COUNT(*) FROM dup WHERE class = 1 LIMIT 0",
		"SELECT id FROM dup ORDER BY ABS(eps) LIMIT 4",
		"SELECT id, class FROM empty",
		"SELECT id FROM empty WHERE eps >= -1 AND eps <= 1",
		"SELECT COUNT(*) FROM empty",
		"SELECT id FROM empty ORDER BY ABS(eps) LIMIT 3",
	}
	want := map[string][][]string{}
	for _, q := range queries {
		_, rows := runOn(t, dupCatalog(24), q)
		want[q] = rows
	}
	for _, size := range []int{1, 2, 3, 7} {
		withBatchSize(t, size, func() {
			for _, q := range queries {
				_, rows := runOn(t, dupCatalog(24), q)
				if !reflect.DeepEqual(rows, want[q]) {
					t.Errorf("batch=%d %s:\nrows %v\nwant %v", size, q, rows, want[q])
				}
			}
		})
	}
}

// TestSortAbsEpsTieStability pins the tie order: rows whose |eps|
// compares equal come out in scan (eps-ascending) order even when the
// tied run is split across several batches.
func TestSortAbsEpsTieStability(t *testing.T) {
	cat := dupCatalog(24)
	ref := cat.views["dup"].entries
	var want [][]string
	idx := make([]int, len(ref))
	for i := range idx {
		idx[i] = i
	}
	// Reference: stable sort of the eps-ascending scan on |eps|.
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && math.Abs(ref[idx[j]].eps) < math.Abs(ref[idx[j-1]].eps); j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	for _, i := range idx {
		want = append(want, []string{fmt.Sprint(ref[i].id), fmt.Sprintf("%g", ref[i].eps)})
	}
	for _, size := range []int{1, 3, 1024} {
		withBatchSize(t, size, func() {
			_, rows := runOn(t, dupCatalog(24), "SELECT id, eps FROM dup ORDER BY ABS(eps)")
			if !reflect.DeepEqual(rows, want) {
				t.Errorf("batch=%d:\nrows %v\nwant %v", size, rows, want)
			}
		})
	}
}

// TestLimitStopsLeafMidBatch pins the pushdown half of LIMIT: when
// LIMIT sits directly over a scan, the row request propagates down so
// the leaf produces exactly N rows, not a whole batch it then throws
// away. (A Filter in between legitimately over-reads — it cannot know
// how many source rows N survivors take.)
func TestLimitStopsLeafMidBatch(t *testing.T) {
	plan := mustBuild(t, dupCatalog(24), "SELECT id FROM dup WHERE eps >= -2.0 LIMIT 3")
	an := Instrument(plan.Root, nil)
	if err := an.Open(); err != nil {
		t.Fatal(err)
	}
	defer an.Close()
	b := NewBatch()
	defer b.Release()
	for {
		if err := an.NextBatch(b); err != nil {
			t.Fatal(err)
		}
		if b.Len() == 0 {
			break
		}
	}
	var leaf string
	for node, next := Operator(an), Operator(nil); node != nil; node = next {
		leaf, next = node.Describe()
	}
	if !strings.Contains(leaf, "EpsRange(") || !strings.Contains(leaf, "(rows=3 ") {
		t.Fatalf("leaf under LIMIT 3 produced more than asked: %q", leaf)
	}
}
