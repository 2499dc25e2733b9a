// Package exec is the streaming query executor behind SELECT and
// EXPLAIN: a vectorized volcano pipeline (Open / NextBatch / Close
// over columnar batches) plus a small planner that lowers a parsed
// sqlmini.Select onto the physical read surfaces the catalog offers.
//
// The planner is where the paper's read taxonomy (§3.2–3.4) becomes
// plan choice. Classification-view predicates are pushed down to the
// structure that answers them without a rescan:
//
//	WHERE id = k             → PointRead        (Single Entity)
//	WHERE class = 1          → MembersScan      (All Members fast path)
//	COUNT(*) ... class = 1   → MembersCount     (no id materialization)
//	WHERE eps BETWEEN a,b    → EpsRange         (clustered index scan)
//	ORDER BY ABS(eps) LIMIT k→ Uncertain        (walk out from eps = 0)
//	otherwise                → FullScan         (+ implicit Sort(id))
//
// Everything the pushdown cannot consume stays behind as a Filter;
// ORDER BY, LIMIT, COUNT(*), and projection are ordinary operators
// above the scan. Rows stream through the pipeline a Batch (~1024
// rows as parallel column slices) at a time, so the per-row costs of
// the classic one-tuple Next() — a virtual call, a boxed row
// allocation, a timing touch under EXPLAIN ANALYZE — are paid per
// batch instead. Only Sort materializes, because ordering is
// inherently blocking; the row-at-a-time surface survives solely as
// an adapter at the outermost cursor boundary (the root package's
// Rows), so the SQL dialect and wire protocol are byte-identical to
// the row-at-a-time executor's.
//
// The package is pure plumbing over two narrow interfaces, ViewSource
// and TableSource, implemented by the root package: an engined view
// binds a published snapshot (immutable, lock-free), an unmanaged
// view binds the live structure under the caller's serialization, and
// tables bind the relational heap. exec itself knows nothing about
// engines, catalogs, or storage.
package exec

import "strconv"

// Kind types a Value.
type Kind uint8

// Value kinds.
const (
	KInt Kind = iota
	KFloat
	KString
)

// Value is one typed SQL cell.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
}

// IntVal makes an integer cell.
func IntVal(v int64) Value { return Value{kind: KInt, i: v} }

// FloatVal makes a float cell.
func FloatVal(v float64) Value { return Value{kind: KFloat, f: v} }

// StrVal makes a string cell.
func StrVal(v string) Value { return Value{kind: KString, s: v} }

// Render stringifies the cell the way results are wired: integers
// without decimals, floats in their shortest form, strings verbatim.
func (v Value) Render() string {
	switch v.kind {
	case KInt:
		return strconv.FormatInt(v.i, 10)
	case KFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	default:
		return v.s
	}
}

// num returns the cell as a float64 for numeric comparison.
func (v Value) num() float64 {
	if v.kind == KInt {
		return float64(v.i)
	}
	return v.f
}

// Row is one tuple flowing through the pipeline.
type Row []Value

// Column is a named, typed output column.
type Column struct {
	Name string
	Kind Kind
}

// Operator is one node of a streaming plan — the volcano contract,
// vectorized: Open prepares the node (and its children); NextBatch
// resets dst to the node's output schema and fills it with up to
// dst.Room() rows (dst.Len() == 0 reports end of stream, and repeated
// calls after that stay empty); Close releases resources and is safe
// to call after a failed Open or mid-stream. Describe renders the
// node for EXPLAIN and names its child (nil for leaves) so a plan
// prints without being executed.
//
// A non-empty batch mid-stream is never zero rows: operators that can
// come up short on one pull (Filter) keep pulling their child until
// they have at least one row or the child is exhausted. The only
// want-setter is Limit, which caps its child's fills at the rows it
// still needs so leaf reads do not overrun a LIMIT by a whole batch.
type Operator interface {
	Open() error
	NextBatch(dst *Batch) error
	Close() error
	Describe() (string, Operator)
}

// Cursor streams source rows into a leaf operator, a batch at a
// time: NextBatch appends up to dst.Room() rows to dst (appending
// none reports end of stream — sources never return a short-but-empty
// fill mid-stream). The leaf operator owns dst's schema; the cursor
// only appends. Close is idempotent and releases whatever the source
// holds (page pins for on-disk scans; nothing for snapshots).
type Cursor interface {
	NextBatch(dst *Batch) error
	Close()
}

// ViewSource is one classification view's read surface, bound once at
// plan time: for an engined view the root package binds the engine's
// published snapshot, so every operator of the plan reads one
// immutable state without locks; for an unmanaged view it binds the
// live structure under the caller's serialization (the server's
// statement mutex, or single-threaded embedded use).
//
// View rows are (id BIGINT, class BIGINT, eps DOUBLE), in that order.
// Eps — the signed distance to the decision boundary under the stored
// model — is only real on clustered (Hazy-strategy) layouts;
// Clustered gates every eps-touching plan.
type ViewSource interface {
	Name() string
	// Origin says where rows come from ("snapshot" or "live") so
	// EXPLAIN shows which state a plan reads.
	Origin() string
	Clustered() bool
	Label(id int64) (int, error)
	Eps(id int64) (float64, error)
	Members() ([]int64, error)
	CountMembers() (int, error)
	MostUncertain(k int) ([]int64, error)
	// Scan streams every row — eps-ascending on clustered layouts,
	// unspecified order otherwise.
	Scan() (Cursor, error)
	// ScanEps streams the rows with eps ∈ [lo, hi], eps-ascending.
	// Clustered sources only.
	ScanEps(lo, hi float64) (Cursor, error)
}

// TableSource is a relational table's read surface: two columns, an
// id point read through the primary-key index, and a heap-order scan.
type TableSource interface {
	Name() string
	Columns() []Column
	// Get answers WHERE id = k; ok=false when the key is absent.
	Get(id int64) (Row, bool, error)
	Scan() (Cursor, error)
}

// Catalog resolves FROM names at plan time. Views shadow tables, as
// they always have. ok=false means "no such name" (the planner tries
// the other namespace, then errors); a non-nil error aborts planning.
type Catalog interface {
	View(name string) (ViewSource, bool, error)
	Table(name string) (TableSource, bool, error)
}

// viewColumns is the fixed schema every view source streams.
var viewColumns = []Column{
	{Name: "id", Kind: KInt},
	{Name: "class", Kind: KInt},
	{Name: "eps", Kind: KFloat},
}

// viewKinds is viewColumns as a batch schema.
var viewKinds = []Kind{KInt, KInt, KFloat}

// columnKinds extracts a batch schema from a column list.
func columnKinds(cols []Column) []Kind {
	kinds := make([]Kind, len(cols))
	for i, c := range cols {
		kinds[i] = c.Kind
	}
	return kinds
}

// Positions of the view columns in a view Row.
const (
	viewColID = iota
	viewColClass
	viewColEps
)
