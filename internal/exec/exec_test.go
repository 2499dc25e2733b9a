package exec

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"hazy/internal/sqlmini"
)

// fakeEntry is one row of the fake view.
type fakeEntry struct {
	id    int64
	eps   float64
	class int
}

// fakeView is an in-memory ViewSource, eps-ascending when clustered.
type fakeView struct {
	name      string
	origin    string
	clustered bool
	entries   []fakeEntry // eps-ascending
}

func (f *fakeView) Name() string    { return f.name }
func (f *fakeView) Origin() string  { return f.origin }
func (f *fakeView) Clustered() bool { return f.clustered }

func (f *fakeView) Label(id int64) (int, error) {
	for _, e := range f.entries {
		if e.id == id {
			return e.class, nil
		}
	}
	return 0, fmt.Errorf("core: no entity %d", id)
}

func (f *fakeView) Eps(id int64) (float64, error) {
	for _, e := range f.entries {
		if e.id == id {
			return e.eps, nil
		}
	}
	return 0, fmt.Errorf("core: no entity %d", id)
}

func (f *fakeView) Members() ([]int64, error) {
	var out []int64
	for _, e := range f.entries {
		if e.class > 0 {
			out = append(out, e.id)
		}
	}
	return out, nil
}

func (f *fakeView) CountMembers() (int, error) {
	ids, _ := f.Members()
	return len(ids), nil
}

func (f *fakeView) MostUncertain(k int) ([]int64, error) {
	if !f.clustered {
		return nil, fmt.Errorf("core: MostUncertain requires the Hazy strategy")
	}
	idx := make([]int, len(f.entries))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return math.Abs(f.entries[idx[a]].eps) < math.Abs(f.entries[idx[b]].eps)
	})
	var out []int64
	for _, i := range idx {
		if len(out) == k {
			break
		}
		out = append(out, f.entries[i].id)
	}
	return out, nil
}

type fakeCursor struct {
	rows []Row
	i    int
}

func (c *fakeCursor) NextBatch(dst *Batch) error {
	for c.i < len(c.rows) && dst.Room() > 0 {
		dst.AppendRow(c.rows[c.i])
		c.i++
	}
	return nil
}

func (c *fakeCursor) Close() {}

func (f *fakeView) Scan() (Cursor, error) {
	var rows []Row
	for _, e := range f.entries {
		rows = append(rows, Row{IntVal(e.id), IntVal(int64(e.class)), FloatVal(e.eps)})
	}
	return &fakeCursor{rows: rows}, nil
}

func (f *fakeView) ScanEps(lo, hi float64) (Cursor, error) {
	if !f.clustered {
		return nil, fmt.Errorf("core: eps requires the Hazy strategy")
	}
	var rows []Row
	for _, e := range f.entries {
		if e.eps >= lo && e.eps <= hi {
			rows = append(rows, Row{IntVal(e.id), IntVal(int64(e.class)), FloatVal(e.eps)})
		}
	}
	return &fakeCursor{rows: rows}, nil
}

// fakeTable is an in-memory TableSource.
type fakeTable struct {
	name string
	cols []Column
	rows []Row
}

func (f *fakeTable) Name() string      { return f.name }
func (f *fakeTable) Columns() []Column { return f.cols }

func (f *fakeTable) Get(id int64) (Row, bool, error) {
	for _, r := range f.rows {
		if r[0].i == id {
			return r, true, nil
		}
	}
	return nil, false, nil
}

func (f *fakeTable) Scan() (Cursor, error) {
	return &fakeCursor{rows: f.rows}, nil
}

type fakeCatalog struct {
	views  map[string]*fakeView
	tables map[string]*fakeTable
}

func (c *fakeCatalog) View(name string) (ViewSource, bool, error) {
	v, ok := c.views[name]
	if !ok {
		return nil, false, nil
	}
	return v, true, nil
}

func (c *fakeCatalog) Table(name string) (TableSource, bool, error) {
	t, ok := c.tables[name]
	if !ok {
		return nil, false, nil
	}
	return t, true, nil
}

func testCatalog() *fakeCatalog {
	return &fakeCatalog{
		views: map[string]*fakeView{
			"v": {name: "v", origin: "snapshot", clustered: true, entries: []fakeEntry{
				{id: 4, eps: -0.9, class: -1},
				{id: 1, eps: -0.3, class: -1},
				{id: 5, eps: -0.05, class: -1},
				{id: 2, eps: 0.1, class: 1},
				{id: 3, eps: 0.8, class: 1},
			}},
			"naive": {name: "naive", origin: "live", clustered: false, entries: []fakeEntry{
				{id: 1, class: 1}, {id: 2, class: -1},
			}},
		},
		tables: map[string]*fakeTable{
			"t": {name: "t", cols: []Column{{Name: "id", Kind: KInt}, {Name: "title", Kind: KString}}, rows: []Row{
				{IntVal(2), StrVal("beta")},
				{IntVal(1), StrVal("alpha")},
				{IntVal(3), StrVal("gamma")},
			}},
		},
	}
}

// drain runs an opened plan to completion, rendering every batch.
func drain(t *testing.T, src string, root Operator) [][]string {
	t.Helper()
	b := NewBatch()
	defer b.Release()
	var out [][]string
	for {
		if err := root.NextBatch(b); err != nil {
			t.Fatalf("%s: next: %v", src, err)
		}
		if b.Len() == 0 {
			return out
		}
		for r := 0; r < b.Len(); r++ {
			rendered := make([]string, b.Width())
			b.RenderRow(r, rendered)
			out = append(out, rendered)
		}
	}
}

// run plans and executes one statement, returning rendered rows.
func run(t *testing.T, src string) (*Plan, [][]string) {
	t.Helper()
	return runOn(t, testCatalog(), src)
}

// runOn is run against an explicit catalog.
func runOn(t *testing.T, cat Catalog, src string) (*Plan, [][]string) {
	t.Helper()
	st, err := sqlmini.Parse(src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	sel, ok := st.(sqlmini.Select)
	if !ok {
		sel = st.(sqlmini.Explain).Sel
	}
	plan, err := Build(sel, cat)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	if err := plan.Root.Open(); err != nil {
		t.Fatalf("%s: open: %v", src, err)
	}
	defer plan.Root.Close()
	return plan, drain(t, src, plan.Root)
}

func TestPlanShapesAndResults(t *testing.T) {
	cases := []struct {
		sql  string
		plan string // newline-joined Explain
		rows [][]string
	}{
		{
			"SELECT class FROM v WHERE id = 2",
			"Project(class)\n  PointRead(v, snapshot, id=2)",
			[][]string{{"1"}},
		},
		{
			"SELECT id FROM v WHERE class = 1",
			"Project(id)\n  MembersScan(v, snapshot)",
			[][]string{{"2"}, {"3"}},
		},
		{
			"SELECT COUNT(*) FROM v WHERE class = 1",
			"MembersCount(v, snapshot)",
			[][]string{{"2"}},
		},
		{
			"SELECT id, eps FROM v WHERE eps >= -0.3 AND eps <= 0.2",
			"Project(id, eps)\n  EpsRange(v, snapshot, -0.3 <= eps <= 0.2)",
			[][]string{{"1", "-0.3"}, {"5", "-0.05"}, {"2", "0.1"}},
		},
		{
			"SELECT id FROM v WHERE eps > 0 AND class = 1",
			"Project(id)\n  Filter(class = 1)\n    EpsRange(v, snapshot, eps >= 5e-324)",
			[][]string{{"2"}, {"3"}},
		},
		{
			"SELECT id, class FROM v",
			"Project(id, class)\n  Sort(id)\n    FullScan(v, snapshot)",
			[][]string{{"1", "-1"}, {"2", "1"}, {"3", "1"}, {"4", "-1"}, {"5", "-1"}},
		},
		{
			"SELECT * FROM v WHERE class = -1",
			"Project(id, class)\n  Sort(id)\n    Filter(class = -1)\n      FullScan(v, snapshot)",
			[][]string{{"1", "-1"}, {"4", "-1"}, {"5", "-1"}},
		},
		{
			"SELECT id FROM v ORDER BY ABS(eps) LIMIT 3",
			"Project(id)\n  Uncertain(v, snapshot, k=3)",
			[][]string{{"5"}, {"2"}, {"1"}},
		},
		{
			"SELECT id, eps FROM v ORDER BY eps DESC LIMIT 2",
			"Project(id, eps)\n  Limit(2)\n    Sort(eps desc)\n      FullScan(v, snapshot)",
			[][]string{{"3", "0.8"}, {"2", "0.1"}},
		},
		{
			"SELECT id FROM v ORDER BY id DESC LIMIT 2",
			"Project(id)\n  Limit(2)\n    Sort(id desc)\n      FullScan(v, snapshot)",
			[][]string{{"5"}, {"4"}},
		},
		{
			"SELECT COUNT(*) FROM v WHERE eps >= 0",
			"Count\n  EpsRange(v, snapshot, eps >= 0)",
			[][]string{{"2"}},
		},
		{
			"SELECT id FROM naive WHERE class = 1",
			"Project(id)\n  MembersScan(naive, live)",
			[][]string{{"1"}},
		},
		{
			// LIMIT applies over the aggregate's single result row.
			"SELECT COUNT(*) FROM v WHERE class = 1 LIMIT 0",
			"Limit(0)\n  MembersCount(v, snapshot)",
			nil,
		},
		{
			"SELECT COUNT(*) FROM t LIMIT 1",
			"Limit(1)\n  Count\n    TableScan(t)",
			[][]string{{"3"}},
		},
		{
			// An inverted eps interval is an empty range, not a panic.
			"SELECT id FROM v WHERE eps >= 1.0 AND eps <= -1.0",
			"Project(id)\n  EpsRange(v, snapshot, 1 <= eps <= -1)",
			nil,
		},
		{
			"SELECT title FROM t WHERE id = 2",
			"Project(title)\n  TableGet(t, id=2)",
			[][]string{{"beta"}},
		},
		{
			"SELECT * FROM t",
			"Project(id, title)\n  TableScan(t)",
			[][]string{{"2", "beta"}, {"1", "alpha"}, {"3", "gamma"}},
		},
		{
			"SELECT COUNT(*) FROM t WHERE id >= 2",
			"Count\n  Filter(id >= 2)\n    TableScan(t)",
			[][]string{{"2"}},
		},
		{
			"SELECT title FROM t ORDER BY title DESC LIMIT 1",
			"Project(title)\n  Limit(1)\n    Sort(title desc)\n      TableScan(t)",
			[][]string{{"gamma"}},
		},
		{
			"SELECT id FROM t WHERE title = 'alpha'",
			"Project(id)\n  Filter(title = 'alpha')\n    TableScan(t)",
			[][]string{{"1"}},
		},
		{
			"SELECT id FROM t WHERE id = 99",
			"Project(id)\n  TableGet(t, id=99)",
			nil,
		},
	}
	for _, c := range cases {
		plan, rows := run(t, c.sql)
		if got := strings.Join(plan.Explain(), "\n"); got != c.plan {
			t.Errorf("%s:\nplan:\n%s\nwant:\n%s", c.sql, got, c.plan)
		}
		if !reflect.DeepEqual(rows, c.rows) {
			t.Errorf("%s: rows %v, want %v", c.sql, rows, c.rows)
		}
	}
}

func TestPlanErrors(t *testing.T) {
	cat := testCatalog()
	for _, sql := range []string{
		"SELECT eps FROM naive",                  // eps needs clustering
		"SELECT id FROM naive WHERE eps > 0",     // same, via WHERE
		"SELECT id FROM naive ORDER BY ABS(eps)", // same, via ORDER BY
		"SELECT nope FROM v",                     // unknown column
		"SELECT id FROM v WHERE nope = 1",        // unknown WHERE column
		"SELECT id FROM v ORDER BY nope",         // unknown ORDER BY column
		"SELECT id FROM v WHERE class = 2",       // class must be ±1
		"SELECT COUNT(*) FROM v ORDER BY id",     // ORDER BY under COUNT
		"SELECT id FROM missing",                 // no such relation
		"SELECT eps FROM t",                      // tables have no eps
		"SELECT id FROM t ORDER BY ABS(title)",   // ABS of TEXT
	} {
		st, err := sqlmini.Parse(sql)
		if err != nil {
			t.Fatalf("%s: parse: %v", sql, err)
		}
		if _, err := Build(st.(sqlmini.Select), cat); err == nil {
			t.Errorf("planned: %s", sql)
		}
	}
}

// TestPointReadMissingEntityErrors pins the historical asymmetry: a
// view point read of a missing id is an error, a table get is empty.
func TestPointReadMissingEntityErrors(t *testing.T) {
	st, _ := sqlmini.Parse("SELECT class FROM v WHERE id = 99")
	plan, err := Build(st.(sqlmini.Select), testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Root.Open(); err != nil {
		t.Fatal(err)
	}
	defer plan.Root.Close()
	b := NewBatch()
	defer b.Release()
	if err := plan.Root.NextBatch(b); err == nil {
		t.Fatal("missing view entity did not error")
	}
}
