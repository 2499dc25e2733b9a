package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"hazy/internal/btree"
	"hazy/internal/learn"
	"hazy/internal/storage"
	"hazy/internal/vector"
)

// On-disk record layout for Hazy's H(s)(id, f, eps) ⋈ V(id, class)
// table (the paper materializes eps and class alongside the feature
// vector so the incremental step can read and patch without a join):
//
//	[0:8)   id    int64
//	[8:16)  eps   float64 (under the stored model)
//	[16]    class byte (0 = −1, 1 = +1)
//	[17:)   f     encoded vector
const (
	recIDOff    = 0
	recEpsOff   = 8
	recClassOff = 16
	recVecOff   = 17
)

func encodeRecord(id int64, eps float64, class int, f vector.Vector) []byte {
	buf := make([]byte, 0, recVecOff+f.EncodedSize())
	buf = binary.LittleEndian.AppendUint64(buf, uint64(id))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(eps))
	buf = append(buf, classByte(class))
	return f.Encode(buf)
}

// classByte is the stored form of a ±1 label.
func classByte(class int) byte {
	if class > 0 {
		return 1
	}
	return 0
}

func decodeClass(b byte) int {
	if b == 1 {
		return 1
	}
	return -1
}

// decodeEps reads a record's stored eps without decoding the vector.
func decodeEps(rec []byte) (float64, error) {
	if len(rec) < recVecOff {
		return 0, fmt.Errorf("core: short disk record (%d bytes)", len(rec))
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(rec[recEpsOff:])), nil
}

// decodeVectorInto decodes rec's feature vector into dst, reusing
// dst's capacity: the allocation-free form for scans that predict one
// row at a time and keep nothing.
func decodeVectorInto(dst *vector.Vector, rec []byte) error {
	if len(rec) < recVecOff {
		return fmt.Errorf("core: short disk record (%d bytes)", len(rec))
	}
	_, err := vector.DecodeInto(dst, rec[recVecOff:])
	return err
}

func decodeRecord(rec []byte) (id int64, eps float64, class int, f vector.Vector, err error) {
	if len(rec) < recVecOff {
		return 0, 0, 0, vector.Vector{}, fmt.Errorf("core: short disk record (%d bytes)", len(rec))
	}
	id = int64(binary.LittleEndian.Uint64(rec[recIDOff:]))
	eps = math.Float64frombits(binary.LittleEndian.Uint64(rec[recEpsOff:]))
	class = decodeClass(rec[recClassOff])
	f, _, err = vector.Decode(rec[recVecOff:])
	return id, eps, class, f, err
}

// diskTable is the physical store behind the on-disk and hybrid
// architectures: a heap of records, a hash index id→RID, and (for the
// Hazy strategy) a clustered B+-tree on (eps, id). Rebuild writes a
// fresh generation file clustered on new eps values and removes the
// old one — Hazy's reorganization step.
type diskTable struct {
	dir       string
	poolPages int
	gen       int

	pager *storage.Pager
	pool  *storage.BufferPool
	heap  *storage.HeapFile
	tree  *btree.Tree // nil for the naive strategy
	byID  map[int64]storage.RID
	n     int
}

// newDiskTable creates the store under dir; clustered selects whether
// the B+-tree on eps is maintained.
func newDiskTable(dir string, poolPages int, clustered bool) (*diskTable, error) {
	if poolPages <= 0 {
		poolPages = 256
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	dt := &diskTable{dir: dir, poolPages: poolPages, byID: map[int64]storage.RID{}}
	if err := dt.openGen(clustered); err != nil {
		return nil, err
	}
	return dt, nil
}

func (dt *diskTable) genPath(gen int) string {
	return filepath.Join(dt.dir, fmt.Sprintf("h-%06d.pg", gen))
}

// openGen opens a fresh generation file with an empty heap (and tree
// when clustered).
func (dt *diskTable) openGen(clustered bool) error {
	pager, err := storage.OpenPager(dt.genPath(dt.gen))
	if err != nil {
		return err
	}
	pool := storage.NewBufferPool(pager, dt.poolPages)
	dt.pager, dt.pool = pager, pool
	dt.heap = storage.NewHeapFile(pool)
	dt.tree = nil
	if clustered {
		tr, err := btree.New(pool)
		if err != nil {
			pager.Close()
			return err
		}
		dt.tree = tr
	}
	return nil
}

// Close releases the current generation file.
func (dt *diskTable) Close() error { return dt.pager.Close() }

// Len returns the number of stored entities.
func (dt *diskTable) Len() int { return dt.n }

// Insert appends one entity record.
func (dt *diskTable) Insert(id int64, eps float64, class int, f vector.Vector) error {
	if _, dup := dt.byID[id]; dup {
		return fmt.Errorf("core: duplicate entity %d", id)
	}
	rid, err := dt.heap.Insert(encodeRecord(id, eps, class, f))
	if err != nil {
		return err
	}
	dt.byID[id] = rid
	if dt.tree != nil {
		if err := dt.tree.Insert(btree.Key{Eps: eps, ID: id}, rid); err != nil {
			return err
		}
	}
	dt.n++
	return nil
}

// BulkInsert appends the initial entity set (eps = 0, class =
// classOf(f)) through the heap's page-batched bulk loader, without
// maintaining the B+-tree: callers must Rebuild before serving
// clustered reads — the striped build path does so immediately, which
// rewrites the tree from scratch anyway, so per-record tree descents
// during the load would be pure waste.
func (dt *diskTable) BulkInsert(entities []Entity, classOf func(f vector.Vector) int) error {
	if dt.n > 0 {
		return fmt.Errorf("core: bulk insert into non-empty table (%d records)", dt.n)
	}
	for _, e := range entities {
		if _, dup := dt.byID[e.ID]; dup {
			return fmt.Errorf("core: duplicate entity %d", e.ID)
		}
		dt.byID[e.ID] = storage.RID{}
	}
	i := 0
	rids, err := dt.heap.BulkLoad(func() ([]byte, error) {
		if i == len(entities) {
			return nil, nil
		}
		e := entities[i]
		i++
		return encodeRecord(e.ID, 0, classOf(e.F), e.F), nil
	})
	if err != nil {
		return err
	}
	for j, e := range entities {
		dt.byID[e.ID] = rids[j]
	}
	dt.n += len(entities)
	return nil
}

// Get reads the record for id.
func (dt *diskTable) Get(id int64) (eps float64, class int, f vector.Vector, err error) {
	rid, ok := dt.byID[id]
	if !ok {
		return 0, 0, vector.Vector{}, fmt.Errorf("core: no entity %d", id)
	}
	err = dt.heap.View(rid, func(rec []byte) error {
		_, eps, class, f, err = decodeRecord(rec) // f is freshly allocated
		return err
	})
	return eps, class, f, err
}

// GetClass reads just the class byte for id.
func (dt *diskTable) GetClass(id int64) (int, error) {
	rid, ok := dt.byID[id]
	if !ok {
		return 0, fmt.Errorf("core: no entity %d", id)
	}
	var class int
	err := dt.heap.View(rid, func(rec []byte) error {
		class = decodeClass(rec[recClassOff])
		return nil
	})
	return class, err
}

// PatchClass updates the class byte in place.
func (dt *diskTable) PatchClass(rid storage.RID, class int) error {
	return dt.heap.Patch(rid, recClassOff, []byte{classByte(class)})
}

// ScanAll visits every record in heap order. fn receives a freshly
// decoded feature vector it may retain.
func (dt *diskTable) ScanAll(fn func(rid storage.RID, id int64, eps float64, class int, f vector.Vector) error) error {
	return dt.heap.Scan(func(rid storage.RID, rec []byte) error {
		id, eps, class, f, err := decodeRecord(rec)
		if err != nil {
			return err
		}
		return fn(rid, id, eps, class, f)
	})
}

// sweepOverflow reclassifies one overflow record for a band sweep:
// the record is assembled by Get and its class byte patched through
// the chain.
func (dt *diskTable) sweepOverflow(rid storage.RID, predict func(f vector.Vector) int) error {
	rec, err := dt.heap.Get(rid)
	if err != nil {
		return err
	}
	_, _, class, f, err := decodeRecord(rec)
	if err != nil {
		return err
	}
	if nl := predict(f); nl != class {
		return dt.PatchClass(rid, nl)
	}
	return nil
}

// ScanKeysAbove visits (eps, id) pairs with eps > hi straight from
// the index leaves, without touching the heap — the All Members fast
// path for tuples above high water.
func (dt *diskTable) ScanKeysAbove(hi float64, fn func(id int64) error) error {
	if dt.tree == nil {
		return fmt.Errorf("core: key scan on unclustered table")
	}
	return dt.tree.Range(math.Nextafter(hi, math.Inf(1)), math.Inf(1),
		func(k btree.Key, rid storage.RID) (bool, error) {
			if err := fn(k.ID); err != nil {
				return false, err
			}
			return true, nil
		})
}

// NearestZero returns up to k index keys ordered by |eps| — the
// entities closest to the decision boundary.
func (dt *diskTable) NearestZero(k int) ([]btree.Key, error) {
	if dt.tree == nil {
		return nil, fmt.Errorf("core: NearestZero on unclustered table")
	}
	// Last k keys strictly below zero (ascending ring) ...
	var neg []btree.Key
	err := dt.tree.Range(math.Inf(-1), math.Nextafter(0, math.Inf(-1)),
		func(key btree.Key, _ storage.RID) (bool, error) {
			neg = append(neg, key)
			if len(neg) > k {
				neg = neg[1:]
			}
			return true, nil
		})
	if err != nil {
		return nil, err
	}
	// ... and the first k at or above zero.
	var pos []btree.Key
	err = dt.tree.Range(0, math.Inf(1), func(key btree.Key, _ storage.RID) (bool, error) {
		pos = append(pos, key)
		return len(pos) < k, nil
	})
	if err != nil {
		return nil, err
	}
	// Merge outward from zero by |eps|.
	out := make([]btree.Key, 0, k)
	ni, pi := len(neg)-1, 0
	for len(out) < k && (ni >= 0 || pi < len(pos)) {
		switch {
		case ni < 0:
			out = append(out, pos[pi])
			pi++
		case pi >= len(pos):
			out = append(out, neg[ni])
			ni--
		case -neg[ni].Eps <= pos[pi].Eps:
			out = append(out, neg[ni])
			ni--
		default:
			out = append(out, pos[pi])
			pi++
		}
	}
	return out, nil
}

// Rebuild reclusters the table: every record's eps is recomputed with
// epsOf, records are rewritten in eps order into a fresh generation
// file with class = sign(eps), and the old file is deleted. This is
// the physical reorganization step (sort + rewrite + index rebuild),
// whose measured duration seeds the Skiing cost S.
func (dt *diskTable) Rebuild(epsOf func(f vector.Vector) float64) error {
	type row struct {
		id  int64
		eps float64
		f   vector.Vector
	}
	rows := make([]row, 0, dt.n)
	err := dt.ScanAll(func(_ storage.RID, id int64, _ float64, _ int, f vector.Vector) error {
		rows = append(rows, row{id: id, eps: epsOf(f), f: f})
		return nil
	})
	if err != nil {
		return err
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].eps != rows[b].eps {
			return rows[a].eps < rows[b].eps
		}
		return rows[a].id < rows[b].id
	})
	clustered := dt.tree != nil
	oldPager, oldGen := dt.pager, dt.gen
	dt.gen++
	if err := dt.openGen(clustered); err != nil {
		return err
	}
	dt.byID = make(map[int64]storage.RID, len(rows))
	dt.n = 0
	i := 0
	rids, err := dt.heap.BulkLoad(func() ([]byte, error) {
		if i == len(rows) {
			return nil, nil
		}
		r := rows[i]
		i++
		return encodeRecord(r.id, r.eps, learn.Sign(r.eps), r.f), nil
	})
	if err != nil {
		return err
	}
	keys := make([]btree.Key, len(rows))
	for j, r := range rows {
		dt.byID[r.id] = rids[j]
		keys[j] = btree.Key{Eps: r.eps, ID: r.id}
	}
	dt.n = len(rows)
	if clustered {
		if err := dt.tree.BulkLoad(keys, rids); err != nil {
			return err
		}
	}
	oldPager.Close()
	os.Remove(dt.genPath(oldGen))
	return nil
}
