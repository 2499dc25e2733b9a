package exec

import (
	"fmt"
	"math"
	"strings"

	"hazy/internal/sqlmini"
)

// Plan is a built, executable query: the operator pipeline plus its
// output column names. Run it with Root.Open / Next / Close, or print
// it with Explain.
type Plan struct {
	Root Operator
	Cols []string
}

// Explain renders the operator tree, root first, two spaces per
// level — the text EXPLAIN SELECT returns.
func (p *Plan) Explain() []string {
	var lines []string
	for op, depth := p.Root, 0; op != nil; depth++ {
		desc, child := op.Describe()
		lines = append(lines, strings.Repeat("  ", depth)+desc)
		op = child
	}
	return lines
}

// Build lowers one parsed SELECT onto the catalog's read surfaces.
// Views shadow tables, as the dialect always resolved them.
func Build(st sqlmini.Select, cat Catalog) (*Plan, error) {
	if vs, ok, err := cat.View(st.From); err != nil {
		return nil, err
	} else if ok {
		return buildView(st, vs)
	}
	if ts, ok, err := cat.Table(st.From); err != nil {
		return nil, err
	} else if ok {
		return buildTable(st, ts)
	}
	return nil, fmt.Errorf("sql: no table or view %q", st.From)
}

// colIndex resolves a column name case-insensitively.
func colIndex(cols []Column, name string) int {
	for i, c := range cols {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// countPlan tops a scan with COUNT(*), honoring LIMIT over the
// aggregate's (single-row) result per SQL semantics — LIMIT 0 really
// does suppress the count row.
func countPlan(scan Operator, limit int) *Plan {
	var root Operator = &Count{Child: scan}
	if limit >= 0 {
		root = &Limit{Child: root, N: limit}
	}
	return &Plan{Root: root, Cols: []string{"count"}}
}

func litValue(l sqlmini.Literal) Value {
	if l.IsString {
		return StrVal(l.Str)
	}
	if l.Num == float64(int64(l.Num)) {
		return IntVal(int64(l.Num))
	}
	return FloatVal(l.Num)
}

// selectList validates the select list against cols and returns the
// projected indexes with their output names (`*` expands to every
// column the dialect historically exposed — starCols of them).
func selectList(st sqlmini.Select, cols []Column, starCols int) (idx []int, names []string, err error) {
	want := st.Cols
	if len(want) == 1 && want[0] == "*" {
		for _, c := range cols[:starCols] {
			idx = append(idx, colIndex(cols, c.Name))
			names = append(names, c.Name)
		}
		return idx, names, nil
	}
	for _, name := range want {
		i := colIndex(cols, name)
		if i < 0 {
			return nil, nil, fmt.Errorf("sql: unknown column %q", name)
		}
		idx = append(idx, i)
		names = append(names, name)
	}
	return idx, names, nil
}

// refsEps reports whether any part of the query touches the eps
// column (select list, WHERE, or ORDER BY).
func refsEps(st sqlmini.Select) bool {
	for _, c := range st.Cols {
		if strings.EqualFold(c, "eps") {
			return true
		}
	}
	for _, c := range st.Where {
		if strings.EqualFold(c.Col, "eps") {
			return true
		}
	}
	return st.Order != nil && strings.EqualFold(st.Order.Col, "eps")
}

// buildView plans a SELECT over a classification view.
func buildView(st sqlmini.Select, src ViewSource) (*Plan, error) {
	cols := viewColumns
	needEps := refsEps(st)
	if needEps && !src.Clustered() {
		return nil, fmt.Errorf("sql: view %q has no eps clustering (naive strategy)", src.Name())
	}
	// Validate every referenced column up front.
	for _, c := range st.Where {
		if colIndex(cols, c.Col) < 0 {
			return nil, fmt.Errorf("sql: unknown column %q in WHERE", c.Col)
		}
	}
	if st.Order != nil && colIndex(cols, st.Order.Col) < 0 {
		return nil, fmt.Errorf("sql: unknown column %q in ORDER BY", st.Order.Col)
	}
	if st.Order != nil && st.Count {
		return nil, fmt.Errorf("sql: ORDER BY is meaningless under COUNT(*)")
	}

	// Split the conjuncts into what a physical structure can consume —
	// an id point read, the members set, an eps range — and the
	// residual the Filter keeps.
	var idEq *int64
	var classEq *int
	epsLo, epsHi := math.Inf(-1), math.Inf(1)
	epsBounded := false
	var residual []Pred
	keep := func(c sqlmini.Cond) {
		residual = append(residual, NewPred(colIndex(cols, c.Col), strings.ToLower(c.Col), c.Op, litValue(c.Lit)))
	}
	for _, c := range st.Where {
		switch {
		case strings.EqualFold(c.Col, "id") && c.Op == "=" && !c.Lit.IsString &&
			c.Lit.Num == float64(int64(c.Lit.Num)) && idEq == nil:
			id := int64(c.Lit.Num)
			idEq = &id
		case strings.EqualFold(c.Col, "class") && c.Op == "=":
			if c.Lit.IsString || (c.Lit.Num != 1 && c.Lit.Num != -1) {
				return nil, fmt.Errorf("sql: class literal must be ±1")
			}
			if classEq == nil {
				cl := int(c.Lit.Num)
				classEq = &cl
			} else {
				keep(c)
			}
		case strings.EqualFold(c.Col, "eps") && !c.Lit.IsString && c.Op != "<>":
			x := c.Lit.Num
			switch c.Op {
			case "=":
				epsLo, epsHi = math.Max(epsLo, x), math.Min(epsHi, x)
			case ">":
				epsLo = math.Max(epsLo, math.Nextafter(x, math.Inf(1)))
			case ">=":
				epsLo = math.Max(epsLo, x)
			case "<":
				epsHi = math.Min(epsHi, math.Nextafter(x, math.Inf(-1)))
			case "<=":
				epsHi = math.Min(epsHi, x)
			}
			epsBounded = true
		default:
			keep(c)
		}
	}

	classPred := func() {
		if classEq != nil {
			residual = append([]Pred{NewPred(viewColClass, "class", "=", IntVal(int64(*classEq)))}, residual...)
		}
	}

	// Choose the scan.
	var scan Operator
	ordered := ""         // which column the scan already emits in order
	implicitSort := false // full scans re-establish the historical id order
	switch {
	case idEq != nil:
		// Single Entity: one lookup, every other conjunct filters the
		// one row. Unconsumed eps bounds fold back into the filter.
		classPred()
		residual = append(residual, epsPreds(epsBounded, epsLo, epsHi)...)
		scan = &PointRead{Src: src, ID: *idEq, NeedEps: needEps}
	case classEq != nil && *classEq == 1 && !needEps:
		// All Members: the set the maintenance machinery keeps hot.
		if st.Count && len(residual) == 0 {
			var root Operator = &MembersCount{Src: src}
			if st.Limit >= 0 {
				root = &Limit{Child: root, N: st.Limit}
			}
			return &Plan{Root: root, Cols: []string{"count"}}, nil
		}
		scan = &MembersScan{Src: src}
		ordered = "id"
	case epsBounded && src.Clustered():
		// Eps band: an index range scan instead of a rescan — the
		// paper's reason the clustered layout exists.
		classPred()
		scan = NewEpsRange(src, epsLo, epsHi)
		ordered = "eps"
	default:
		classPred()
		residual = append(residual, epsPreds(epsBounded, epsLo, epsHi)...)
		if u := uncertainPlan(st, src, residual); u != nil {
			return u, nil
		}
		scan = NewFullScan(src)
		if src.Clustered() {
			ordered = "eps"
		}
		implicitSort = true
	}

	if len(residual) > 0 {
		scan = &Filter{Child: scan, Preds: residual}
	}
	if st.Count {
		return countPlan(scan, st.Limit), nil
	}

	// Ordering: an explicit ORDER BY wins (skipped when the scan
	// already streams that order); otherwise full scans re-establish
	// the historical id order, while eps-range scans stream in eps
	// order — that is their point.
	if st.Order != nil {
		if !strings.EqualFold(st.Order.Col, ordered) || st.Order.Abs || st.Order.Desc {
			scan = NewSort(scan, colIndex(cols, st.Order.Col), strings.ToLower(st.Order.Col), st.Order.Abs, st.Order.Desc)
		}
	} else if implicitSort {
		scan = NewSort(scan, viewColID, "id", false, false)
	}
	if st.Limit >= 0 {
		scan = &Limit{Child: scan, N: st.Limit}
	}
	idx, names, err := selectList(st, cols, 2) // `*` is (id, class), as ever
	if err != nil {
		return nil, err
	}
	return &Plan{Root: &Project{Child: scan, Idx: idx, Names: names}, Cols: names}, nil
}

// epsPreds turns unconsumed eps bounds back into filter predicates.
func epsPreds(bounded bool, lo, hi float64) []Pred {
	if !bounded {
		return nil
	}
	var out []Pred
	if !math.IsInf(lo, -1) {
		out = append(out, NewPred(viewColEps, "eps", ">=", FloatVal(lo)))
	}
	if !math.IsInf(hi, 1) {
		out = append(out, NewPred(viewColEps, "eps", "<=", FloatVal(hi)))
	}
	return out
}

// uncertainPlan recognizes SELECT ... FROM v ORDER BY ABS(eps) LIMIT k
// with no predicates — the active-learning read — and answers it by
// walking outward from the boundary instead of scanning and sorting.
func uncertainPlan(st sqlmini.Select, src ViewSource, residual []Pred) *Plan {
	if st.Count || st.Order == nil || !st.Order.Abs || st.Order.Desc ||
		!strings.EqualFold(st.Order.Col, "eps") || st.Limit < 0 ||
		len(residual) > 0 || !src.Clustered() {
		return nil
	}
	idx, names, err := selectList(st, viewColumns, 2)
	if err != nil {
		return nil
	}
	needClass, needEps := false, false
	for _, i := range idx {
		needClass = needClass || i == viewColClass
		needEps = needEps || i == viewColEps
	}
	scan := &Uncertain{Src: src, K: st.Limit, NeedClass: needClass, NeedEps: needEps}
	return &Plan{Root: &Project{Child: scan, Idx: idx, Names: names}, Cols: names}
}

// buildTable plans a SELECT over an entity or examples table.
func buildTable(st sqlmini.Select, src TableSource) (*Plan, error) {
	cols := src.Columns()
	for _, c := range st.Where {
		if colIndex(cols, c.Col) < 0 {
			return nil, fmt.Errorf("sql: unknown column %q in WHERE", c.Col)
		}
	}
	if st.Order != nil && colIndex(cols, st.Order.Col) < 0 {
		return nil, fmt.Errorf("sql: unknown column %q in ORDER BY", st.Order.Col)
	}
	if st.Order != nil && st.Count {
		return nil, fmt.Errorf("sql: ORDER BY is meaningless under COUNT(*)")
	}

	var idEq *int64
	var residual []Pred
	for _, c := range st.Where {
		if strings.EqualFold(c.Col, "id") && c.Op == "=" && !c.Lit.IsString &&
			c.Lit.Num == float64(int64(c.Lit.Num)) && idEq == nil {
			id := int64(c.Lit.Num)
			idEq = &id
			continue
		}
		residual = append(residual, NewPred(colIndex(cols, c.Col), strings.ToLower(c.Col), c.Op, litValue(c.Lit)))
	}

	var scan Operator
	if idEq != nil {
		scan = &TableGet{Src: src, ID: *idEq}
	} else {
		scan = NewTableScan(src)
	}
	if len(residual) > 0 {
		scan = &Filter{Child: scan, Preds: residual}
	}
	if st.Count {
		return countPlan(scan, st.Limit), nil
	}
	if st.Order != nil {
		i := colIndex(cols, st.Order.Col)
		if st.Order.Abs && cols[i].Kind == KString {
			return nil, fmt.Errorf("sql: ABS() needs a numeric column, %q is TEXT", st.Order.Col)
		}
		scan = NewSort(scan, i, strings.ToLower(st.Order.Col), st.Order.Abs, st.Order.Desc)
	}
	if st.Limit >= 0 {
		scan = &Limit{Child: scan, N: st.Limit}
	}
	idx, names, err := selectList(st, cols, len(cols))
	if err != nil {
		return nil, err
	}
	return &Plan{Root: &Project{Child: scan, Idx: idx, Names: names}, Cols: names}, nil
}
