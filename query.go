package hazy

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"hazy/internal/core"
	"hazy/internal/exec"
	"hazy/internal/obs"
	"hazy/internal/relation"
	"hazy/internal/sqlmini"
)

// This file binds the catalog to the streaming executor: it
// implements exec's ViewSource / TableSource / Catalog interfaces
// over the DB's views, engines, and tables, and wraps a built plan as
// the Rows cursor the Session's query surface returns.

// Rows is a streaming statement result: column names up front, then
// one rendered row per Next. SELECT rows flow out of the vectorized
// operator pipeline a batch (~1024 rows) at a time; Rows is the
// row-at-a-time boundary — it holds the current batch and deals one
// rendered row per Next, refilling when the batch runs dry — so the
// SQL surface and wire protocol see exactly the row stream they
// always did. Nothing is materialized beyond what the plan itself
// requires (a Sort, and nothing else), which is what lets the server
// write a large result to the wire row by row. Callers must Close
// (idempotent); DDL/DML statements yield a Rows with only Msg set.
type Rows struct {
	cols   []string
	msg    string
	live   bool
	op     exec.Operator
	batch  *exec.Batch // current batch pulled from op (pooled)
	bi     int         // next unread row within batch
	static [][]string  // pre-rendered rows (EXPLAIN, Materialize)
	i      int
	closed bool
}

// Live reports whether the plan reads live (non-snapshot) view state
// and therefore needs the caller's serialization for as long as it
// streams. Snapshot-bound plans and table plans are not live: they
// read immutable state or internally locked tables and may stream
// after the caller's statement lock is released.
func (r *Rows) Live() bool { return r.live }

// Materialize drains the plan into memory so the Rows stops touching
// its sources — the server uses it to bound how long a live plan
// holds the statement mutex to the drain, not the client's read pace.
func (r *Rows) Materialize() error {
	if r.op == nil || r.closed {
		return nil
	}
	op := r.op
	r.op = nil
	defer op.Close()
	b := r.batch
	r.batch = nil
	if b == nil {
		b = exec.NewBatch()
	}
	defer b.Release()
	for {
		for ; r.bi < b.Len(); r.bi++ {
			out := make([]string, b.Width())
			b.RenderRow(r.bi, out)
			r.static = append(r.static, out)
		}
		if err := op.NextBatch(b); err != nil {
			return err
		}
		r.bi = 0
		if b.Len() == 0 {
			return nil
		}
	}
}

// Cols returns the result's column names (nil for DDL/DML).
func (r *Rows) Cols() []string { return r.cols }

// Msg returns the DDL/DML acknowledgment ("" for result sets).
func (r *Rows) Msg() string { return r.msg }

// Next returns the next rendered row, or ok=false at end of stream.
func (r *Rows) Next() ([]string, bool, error) {
	if r.closed {
		return nil, false, nil
	}
	if r.op != nil {
		if r.batch == nil {
			r.batch = exec.NewBatch()
		}
		if r.bi >= r.batch.Len() {
			if err := r.op.NextBatch(r.batch); err != nil {
				return nil, false, err
			}
			r.bi = 0
			if r.batch.Len() == 0 {
				return nil, false, nil
			}
		}
		out := make([]string, r.batch.Width())
		r.batch.RenderRow(r.bi, out)
		r.bi++
		return out, true, nil
	}
	if r.i >= len(r.static) {
		return nil, false, nil
	}
	row := r.static[r.i]
	r.i++
	return row, true, nil
}

// Close releases the plan's resources (cursors, page pins).
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	if r.batch != nil {
		r.batch.Release()
		r.batch = nil
	}
	if r.op != nil {
		return r.op.Close()
	}
	return nil
}

// sessionCatalog resolves FROM names for the planner through
// Session.Bind, so a plan reads whatever state the binding chose — an
// engine's or a replica's published snapshot, immutable and
// lock-free however long the result streams, or the live structure.
// Binding a live view is recorded so the result can say it needs
// serialization (Rows.Live).
type sessionCatalog struct {
	s    *Session
	live bool
}

func (c *sessionCatalog) View(name string) (exec.ViewSource, bool, error) {
	bv, err := c.s.Bind(name)
	if err != nil {
		return nil, false, nil // no such view; the planner tries tables
	}
	c.live = c.live || bv.Live()
	return bv.src, true, nil
}

func (c *sessionCatalog) Table(name string) (exec.TableSource, bool, error) {
	c.s.db.mu.RLock()
	defer c.s.db.mu.RUnlock()
	if t, ok := c.s.db.tables[name]; ok {
		return &tableSource{name: name, tbl: t.tbl, cols: []exec.Column{
			{Name: "id", Kind: exec.KInt},
			{Name: t.TextColumn(), Kind: exec.KString},
		}}, true, nil
	}
	if t, ok := c.s.db.examples[name]; ok {
		return &tableSource{name: name, tbl: t.tbl, cols: []exec.Column{
			{Name: "id", Kind: exec.KInt},
			{Name: "label", Kind: exec.KInt},
		}}, true, nil
	}
	return nil, false, nil
}

// coreCursor adapts a core.RowCursor to the executor's batch
// contract: each NextBatch bulk-fills a scratch entry slice from the
// source (one core-level call per run of rows, a leaf's worth at a
// time for the on-disk layout) and transposes it into dst's columns.
// The scratch persists across calls, so a scan allocates it once.
type coreCursor struct {
	c   core.RowCursor
	buf []core.SnapEntry
}

func (c *coreCursor) NextBatch(dst *exec.Batch) error {
	for {
		want := dst.Room()
		if want == 0 {
			return nil
		}
		if cap(c.buf) < want {
			c.buf = make([]core.SnapEntry, want)
		}
		n, err := c.c.NextBatch(c.buf[:want])
		if err != nil {
			return err
		}
		if n == 0 {
			return nil
		}
		for _, e := range c.buf[:n] {
			dst.AppendViewRow(e.ID, int64(e.Label), e.Eps)
		}
	}
}

func (c *coreCursor) Close() { c.c.Close() }

// snapshotSource serves a binding from one published snapshot (an
// engine's or a replica's): immutable, so safe from any goroutine
// with no locks, and consistent for the whole statement however long
// it streams.
type snapshotSource struct {
	name string
	snap *core.Snapshot
}

func (s *snapshotSource) Name() string    { return s.name }
func (s *snapshotSource) Origin() string  { return "snapshot" }
func (s *snapshotSource) Clustered() bool { return s.snap.Clustered() }

func (s *snapshotSource) Label(id int64) (int, error)   { return s.snap.Label(id) }
func (s *snapshotSource) Eps(id int64) (float64, error) { return s.snap.EpsOf(id) }
func (s *snapshotSource) Members() ([]int64, error)     { return s.snap.Members(), nil }
func (s *snapshotSource) CountMembers() (int, error)    { return s.snap.CountMembers(), nil }
func (s *snapshotSource) MostUncertain(k int) ([]int64, error) {
	return s.snap.MostUncertain(k)
}

func (s *snapshotSource) Scan() (exec.Cursor, error) {
	return s.ScanEps(math.Inf(-1), math.Inf(1))
}

func (s *snapshotSource) ScanEps(lo, hi float64) (exec.Cursor, error) {
	c, err := s.snap.ScanEps(lo, hi)
	if err != nil {
		return nil, err
	}
	return &coreCursor{c: c}, nil
}

// liveSource serves an unmanaged view from the live structure. It
// relies on the caller's serialization (the server's statement mutex,
// or single-threaded embedded use).
type liveSource struct {
	cv *ClassView
}

func (s *liveSource) Name() string   { return s.cv.Name() }
func (s *liveSource) Origin() string { return "live" }

func (s *liveSource) epsIndex() (core.EpsIndexed, bool) {
	ei, ok := s.cv.view.(core.EpsIndexed)
	return ei, ok && ei.Clustered()
}

func (s *liveSource) Clustered() bool {
	_, ok := s.epsIndex()
	return ok
}

func (s *liveSource) Label(id int64) (int, error) { return s.cv.view.Label(id) }
func (s *liveSource) Members() ([]int64, error)   { return s.cv.view.Members() }
func (s *liveSource) CountMembers() (int, error)  { return s.cv.view.CountMembers() }

// Eps returns the entity's stored eps — its signed distance to the
// decision boundary under the model of the last reorganization, the
// SQL surface's `eps` column. Naive views keep none.
func (s *liveSource) Eps(id int64) (float64, error) {
	if ei, ok := s.epsIndex(); ok {
		return ei.EpsOf(id)
	}
	return 0, fmt.Errorf("hazy: view %q has no eps clustering (naive strategy)", s.cv.Name())
}

// uncertain is implemented by live views that can surface
// active-learning candidates.
type uncertain interface {
	MostUncertain(k int) ([]int64, error)
}

func (s *liveSource) MostUncertain(k int) ([]int64, error) {
	u, ok := s.cv.view.(uncertain)
	if !ok {
		return nil, fmt.Errorf("hazy: view %q does not support uncertainty ranking", s.cv.Name())
	}
	return u.MostUncertain(k)
}

func (s *liveSource) Scan() (exec.Cursor, error) {
	if ei, ok := s.epsIndex(); ok {
		c, err := ei.ScanEps(math.Inf(-1), math.Inf(1))
		if err != nil {
			return nil, err
		}
		return &coreCursor{c: c}, nil
	}
	// Naive layouts keep no eps clustering to stream from; fall back
	// to the members set joined against the entity table — the
	// pre-executor full-scan path — materialized at open.
	ids, err := s.cv.view.Members()
	if err != nil {
		return nil, err
	}
	member := make(map[int64]bool, len(ids))
	for _, id := range ids {
		member[id] = true
	}
	var rows []exec.Row
	err = s.cv.Entities().Scan(func(id int64, _ string) error {
		label := int64(-1)
		if member[id] {
			label = 1
		}
		rows = append(rows, exec.Row{exec.IntVal(id), exec.IntVal(label), exec.FloatVal(0)})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &sliceCursor{rows: rows}, nil
}

func (s *liveSource) ScanEps(lo, hi float64) (exec.Cursor, error) {
	ei, ok := s.epsIndex()
	if !ok {
		return nil, fmt.Errorf("hazy: view %q has no eps clustering", s.cv.Name())
	}
	c, err := ei.ScanEps(lo, hi)
	if err != nil {
		return nil, err
	}
	return &coreCursor{c: c}, nil
}

// sliceCursor streams pre-built rows (the naive-layout fallback and
// table scans, which buffer at open because the underlying heap scan
// holds the table's read lock for its duration).
type sliceCursor struct {
	rows []exec.Row
	i    int
}

func (c *sliceCursor) NextBatch(dst *exec.Batch) error {
	for c.i < len(c.rows) && dst.Room() > 0 {
		dst.AppendRow(c.rows[c.i])
		c.i++
	}
	return nil
}

func (c *sliceCursor) Close() {}

// tableSource serves entity and examples tables: a primary-key point
// read and a heap-order scan, both through the relation layer's own
// locking (safe against an engine's concurrent durable inserts).
type tableSource struct {
	name string
	tbl  *relation.Table
	cols []exec.Column
}

func (s *tableSource) Name() string           { return s.name }
func (s *tableSource) Columns() []exec.Column { return s.cols }

func (s *tableSource) row(tup relation.Tuple) exec.Row {
	row := make(exec.Row, len(s.cols))
	for i, c := range s.cols {
		if c.Kind == exec.KString {
			row[i] = exec.StrVal(tup[i].(string))
		} else {
			row[i] = exec.IntVal(tup[i].(int64))
		}
	}
	return row
}

func (s *tableSource) Get(id int64) (exec.Row, bool, error) {
	if !s.tbl.Has(id) {
		return nil, false, nil
	}
	tup, err := s.tbl.Get(id)
	if err != nil {
		return nil, false, err
	}
	return s.row(tup), true, nil
}

func (s *tableSource) Scan() (exec.Cursor, error) {
	rows := make([]exec.Row, 0, s.tbl.Len())
	err := s.tbl.Scan(func(tup relation.Tuple) error {
		rows = append(rows, s.row(tup))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &sliceCursor{rows: rows}, nil
}

// Query parses one SQL statement and returns its result as a
// streaming Rows cursor. SELECTs are planned onto the catalog's read
// surfaces and stream row at a time; EXPLAIN SELECT returns the plan
// text without executing it; every other statement executes
// immediately and returns its acknowledgment in Msg.
func (s *Session) Query(src string) (*Rows, error) {
	st, err := sqlmini.Parse(src)
	if err != nil {
		return nil, err
	}
	switch st := st.(type) {
	case sqlmini.Select:
		cat := &sessionCatalog{s: s}
		plan, err := exec.Build(st, cat)
		if err != nil {
			return nil, err
		}
		if err := plan.Root.Open(); err != nil {
			plan.Root.Close()
			return nil, err
		}
		return &Rows{cols: plan.Cols, op: plan.Root, live: cat.live}, nil
	case sqlmini.Explain:
		plan, err := exec.Build(st.Sel, &sessionCatalog{s: s})
		if err != nil {
			return nil, err
		}
		if st.Analyze {
			// EXPLAIN ANALYZE: wrap every node in the counting/timing
			// decorator, run the plan to completion (rows are counted,
			// not returned), and render the annotated tree. The result
			// is static, so the server can ship it under its statement
			// lock like any other non-live result.
			an := exec.Instrument(plan.Root, s.db.metrics)
			if err := drainPlan(an); err != nil {
				return nil, err
			}
			plan.Root = an
		}
		lines := plan.Explain()
		rows := make([][]string, len(lines))
		for i, l := range lines {
			rows[i] = []string{l}
		}
		return &Rows{cols: []string{"plan"}, static: rows}, nil
	case sqlmini.ShowStats:
		return s.showStats(st.View), nil
	default:
		res, err := s.execStmt(st)
		if err != nil {
			return nil, err
		}
		return &Rows{msg: res.Msg}, nil
	}
}

// drainPlan runs an instrumented plan to completion: Open, exhaust
// batch by batch, Close — the execution half of EXPLAIN ANALYZE.
func drainPlan(op exec.Operator) error {
	if err := op.Open(); err != nil {
		op.Close()
		return err
	}
	b := exec.NewBatch()
	defer b.Release()
	for {
		if err := op.NextBatch(b); err != nil {
			op.Close()
			return err
		}
		if b.Len() == 0 {
			return op.Close()
		}
	}
}

// showStats renders the metrics registry as (metric, value) rows —
// the SHOW STATS [FOR view] statement. Counters and gauges are one
// row each; histograms surface as _count and _sum rows. FOR x keeps
// collectors labeled view=x, plus any named hazy_x_* — so subsystem
// families without a view label (SHOW STATS FOR replica) select too.
func (s *Session) showStats(view string) *Rows {
	var rows [][]string
	for _, sm := range s.db.metrics.Snapshot() {
		if view != "" && !hasLabel(sm.Labels, "view", view) &&
			!strings.HasPrefix(sm.Name, "hazy_"+view+"_") {
			continue
		}
		lbl := obs.FormatLabels(sm.Labels)
		if sm.Kind == obs.KindHistogram {
			rows = append(rows,
				[]string{sm.Name + "_count" + lbl, strconv.FormatInt(sm.Value, 10)},
				[]string{sm.Name + "_sum" + lbl, strconv.FormatUint(sm.Sum, 10)})
			continue
		}
		rows = append(rows, []string{sm.Name + lbl, strconv.FormatInt(sm.Value, 10)})
	}
	return &Rows{cols: []string{"metric", "value"}, static: rows}
}

// hasLabel reports whether labels contains name=value.
func hasLabel(labels []obs.Label, name, value string) bool {
	for _, l := range labels {
		if l.Name == name && l.Value == value {
			return true
		}
	}
	return false
}
