package exec

import "sync"

// defaultBatchSize is the row capacity a pipeline batch is filled to
// when the caller asks for no specific amount. 1024 rows keeps a
// three-column view batch (~24 KB of column data) comfortably inside
// L1/L2 while amortizing the per-call virtual dispatch down to noise.
const defaultBatchSize = 1024

// batchSize is the live batch-capacity knob; see SetBatchSize.
var batchSize = defaultBatchSize

// SetBatchSize adjusts how many rows a pipeline batch carries (the
// batch-size knob; hazyd exposes it as -exec-batch). Values below 1
// reset the default. It is meant to be set once at process start —
// changing it while statements stream is safe for correctness (each
// fill re-reads it) but makes per-query behavior inconsistent.
func SetBatchSize(n int) {
	if n < 1 {
		n = defaultBatchSize
	}
	batchSize = n
}

// BatchSize reports the current batch capacity.
func BatchSize() int { return batchSize }

// Vec is one column vector of a Batch: a Kind plus the typed slice
// that kind selects. Exactly one slice is in use per Vec; all vecs of
// a batch hold the same number of rows.
type Vec struct {
	kind   Kind
	ints   []int64
	floats []float64
	strs   []string
}

// Batch is the columnar unit of execution: up to BatchSize rows as
// parallel column vectors. Operators produce into and consume from
// batches instead of one Row at a time, so the per-row costs of the
// classic volcano loop — a virtual call, an interface-boxed slice
// allocation, a timing touch under EXPLAIN ANALYZE — are paid once
// per ~1024 rows.
//
// A batch separates storage from view: `store` owns the column
// slices in the producing operator's schema order, and `view` maps
// visible column positions onto store indexes. Projection is then a
// permutation of `view` — no data moves — while fills and filters
// always run over the full store.
//
// The zero Batch is ready for use; NewBatch draws from a pool so the
// steady state of a streaming query allocates nothing per batch.
type Batch struct {
	store []Vec
	view  []int
	n     int
	// want is the caller's row request for the next fill: operators
	// fill up to min(want, BatchSize) rows, BatchSize when want is 0.
	// Limit is the one setter, which is what keeps leaf reads from
	// overrunning a LIMIT by a whole batch.
	want int
}

// batchPool recycles batches (and, through them, their column
// slices) across fills and statements.
var batchPool = sync.Pool{New: func() any { return new(Batch) }}

// NewBatch returns an empty pooled batch.
func NewBatch() *Batch { return batchPool.Get().(*Batch) }

// Release resets the batch and returns it to the pool. The caller
// must not touch the batch (or slices obtained from it) afterwards.
func (b *Batch) Release() {
	b.Reset()
	b.want = 0
	batchPool.Put(b)
}

// Len returns the number of rows in the batch.
func (b *Batch) Len() int { return b.n }

// Width returns the number of visible columns.
func (b *Batch) Width() int { return len(b.view) }

// SetWant requests at most n rows from the next fill (0 restores the
// BatchSize default). Operators honor it via Room.
func (b *Batch) SetWant(n int) { b.want = n }

// cap returns the row capacity of the next fill.
func (b *Batch) capRows() int {
	if b.want > 0 && b.want < batchSize {
		return b.want
	}
	return batchSize
}

// Room returns how many more rows the current fill may append.
func (b *Batch) Room() int {
	if r := b.capRows() - b.n; r > 0 {
		return r
	}
	return 0
}

// Reset clears the batch to zero rows and zero columns, keeping the
// allocated column storage for reuse. The want request survives — it
// belongs to the caller, not to the fill.
func (b *Batch) Reset() {
	for i := range b.store {
		v := &b.store[i]
		v.ints, v.floats, v.strs = v.ints[:0], v.floats[:0], v.strs[:0]
	}
	b.store = b.store[:0]
	b.view = b.view[:0]
	b.n = 0
}

// ResetSchema clears the batch and declares its columns: one Vec per
// kind, view mapping the identity. Every producing operator calls
// this before filling.
func (b *Batch) ResetSchema(kinds ...Kind) {
	b.Reset()
	for i, k := range kinds {
		b.addCol(k)
		b.view = append(b.view, i)
	}
}

// ResetLike clears the batch and copies src's visible schema.
func (b *Batch) ResetLike(src *Batch) {
	b.Reset()
	for i := 0; i < src.Width(); i++ {
		b.addCol(src.vec(i).kind)
		b.view = append(b.view, i)
	}
}

// addCol grows the store by one column of kind k, reusing pooled
// slice capacity when the store has been this wide before.
func (b *Batch) addCol(k Kind) {
	if len(b.store) < cap(b.store) {
		b.store = b.store[:len(b.store)+1]
	} else {
		b.store = append(b.store, Vec{})
	}
	b.store[len(b.store)-1].kind = k
}

// vec resolves visible column c to its store vector.
func (b *Batch) vec(c int) *Vec { return &b.store[b.view[c]] }

// Project narrows/reorders the visible columns to idx (indexes into
// the current visible schema). Pure index math; no rows move.
func (b *Batch) Project(idx []int) {
	// In-place when every read position is at or past its write
	// position (true for all monotone select lists); otherwise compose
	// through a scratch copy, since idx may shuffle or repeat columns.
	inPlace := len(idx) <= len(b.view)
	for i, j := range idx {
		if j < i {
			inPlace = false
			break
		}
	}
	if inPlace {
		for i, j := range idx {
			b.view[i] = b.view[j]
		}
		b.view = b.view[:len(idx)]
		return
	}
	old := append([]int(nil), b.view...)
	b.view = b.view[:0]
	for _, j := range idx {
		b.view = append(b.view, old[j])
	}
}

// Truncate drops rows past n.
func (b *Batch) Truncate(n int) {
	if n >= b.n {
		return
	}
	for i := range b.store {
		v := &b.store[i]
		if len(v.ints) > n {
			v.ints = v.ints[:n]
		}
		if len(v.floats) > n {
			v.floats = v.floats[:n]
		}
		if len(v.strs) > n {
			v.strs = v.strs[:n]
		}
	}
	b.n = n
}

// AppendViewRow appends one (id, class, eps) row to a view-schema
// batch — the hot fill path of every view scan.
func (b *Batch) AppendViewRow(id, class int64, eps float64) {
	b.store[viewColID].ints = append(b.store[viewColID].ints, id)
	b.store[viewColClass].ints = append(b.store[viewColClass].ints, class)
	b.store[viewColEps].floats = append(b.store[viewColEps].floats, eps)
	b.n++
}

// AppendRow appends one generic row; the row's kinds must match the
// batch's visible schema.
func (b *Batch) AppendRow(row Row) {
	for c, val := range row {
		v := b.vec(c)
		switch v.kind {
		case KInt:
			v.ints = append(v.ints, val.i)
		case KFloat:
			v.floats = append(v.floats, val.f)
		default:
			v.strs = append(v.strs, val.s)
		}
	}
	b.n++
}

// AppendFrom appends row r of src (same visible schema) to b.
func (b *Batch) AppendFrom(src *Batch, r int) {
	for c := 0; c < len(b.view); c++ {
		dst, sv := b.vec(c), src.vec(c)
		switch dst.kind {
		case KInt:
			dst.ints = append(dst.ints, sv.ints[r])
		case KFloat:
			dst.floats = append(dst.floats, sv.floats[r])
		default:
			dst.strs = append(dst.strs, sv.strs[r])
		}
	}
	b.n++
}

// Extend appends every row of src (same visible schema) to b — the
// bulk path Sort uses to materialize its input. It ignores Room: the
// materialized batch grows past BatchSize by design.
func (b *Batch) Extend(src *Batch) {
	for c := 0; c < len(b.view); c++ {
		dst, sv := b.vec(c), src.vec(c)
		switch dst.kind {
		case KInt:
			dst.ints = append(dst.ints, sv.ints...)
		case KFloat:
			dst.floats = append(dst.floats, sv.floats...)
		default:
			dst.strs = append(dst.strs, sv.strs...)
		}
	}
	b.n += src.n
}

// Value returns cell (r, c) as a Value (by value — no allocation).
func (b *Batch) Value(r, c int) Value {
	v := b.vec(c)
	switch v.kind {
	case KInt:
		return Value{kind: KInt, i: v.ints[r]}
	case KFloat:
		return Value{kind: KFloat, f: v.floats[r]}
	default:
		return Value{kind: KString, s: v.strs[r]}
	}
}

// Int returns integer cell (r, c).
func (b *Batch) Int(r, c int) int64 { return b.vec(c).ints[r] }

// Num returns cell (r, c) as a float64 for numeric comparison.
func (b *Batch) Num(r, c int) float64 {
	v := b.vec(c)
	if v.kind == KInt {
		return float64(v.ints[r])
	}
	return v.floats[r]
}

// RenderRow stringifies row r into dst (len = Width), the way results
// are wired.
func (b *Batch) RenderRow(r int, dst []string) {
	for c := range dst {
		dst[c] = b.Value(r, c).Render()
	}
}
