package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"hazy/internal/learn"
	"hazy/internal/storage"
	"hazy/internal/vector"
)

// sweepFixture is a seeded entity set with a stored model (the
// clustering key) and a drifted current model that flips some labels.
type sweepFixture struct {
	entities      []Entity
	stored, cur   *learn.Model
	bigID         int64 // the entity stored as an overflow record
	lo, hi        float64
	storedEps     map[int64]float64
	entityVectors map[int64]vector.Vector
}

const sweepDim = 40

func randSparse(r *rand.Rand, nnz int) vector.Vector {
	idx := r.Perm(sweepDim)[:nnz]
	sort.Ints(idx)
	f := vector.Vector{Idx: make([]int32, nnz), Val: make([]float64, nnz)}
	for k, i := range idx {
		f.Idx[k] = int32(i)
		f.Val[k] = r.Float64()*2 - 1
	}
	return f
}

func newSweepFixture(t *testing.T, seed int64, n int) *sweepFixture {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	fx := &sweepFixture{stored: learn.NewModel(sweepDim), storedEps: map[int64]float64{},
		entityVectors: map[int64]vector.Vector{}}
	for i := range fx.stored.W {
		fx.stored.W[i] = r.NormFloat64()
	}
	fx.stored.B = 0.1
	fx.cur = fx.stored.Clone()
	for i := range fx.cur.W {
		fx.cur.W[i] += 0.3 * r.NormFloat64()
	}
	for i := 0; i < n; i++ {
		fx.entities = append(fx.entities, Entity{ID: int64(i), F: randSparse(r, 1+r.Intn(sweepDim))})
	}
	// One entity too large for a slotted page: its tail components lie
	// beyond the models' dimension, so they change its size, not its
	// eps. Redraw its head until the drifted model flips its label, so
	// the sweep must patch it through its overflow chain.
	const bigNNZ = 1000
	if 17+5+12*bigNNZ <= storage.MaxInlineRecord {
		t.Fatal("overflow entity would be stored inline")
	}
	for {
		head := randSparse(r, sweepDim)
		big := vector.Vector{Idx: make([]int32, bigNNZ), Val: make([]float64, bigNNZ)}
		for k := range big.Idx {
			big.Idx[k] = int32(k)
			big.Val[k] = 1e-3
		}
		copy(big.Val, head.Val)
		if learn.Sign(fx.stored.Activation(big)) != fx.cur.Predict(big) {
			fx.bigID = int64(n)
			fx.entities = append(fx.entities, Entity{ID: fx.bigID, F: big})
			break
		}
	}
	eps := make([]float64, 0, len(fx.entities))
	for _, e := range fx.entities {
		x := fx.stored.Activation(e.F)
		fx.storedEps[e.ID] = x
		fx.entityVectors[e.ID] = e.F
		eps = append(eps, x)
	}
	sort.Float64s(eps)
	fx.lo, fx.hi = eps[len(eps)/5], eps[len(eps)*4/5]
	if big := fx.storedEps[fx.bigID]; big < fx.lo || big > fx.hi {
		fx.lo, fx.hi = math.Min(fx.lo, big), math.Max(fx.hi, big)
	}
	return fx
}

// want is the brute-force eager label after one sweep of [lo, hi]:
// the current model inside the band, the stored sign outside it.
func (fx *sweepFixture) want(id int64) int {
	eps := fx.storedEps[id]
	if eps >= fx.lo && eps <= fx.hi {
		return fx.cur.Predict(fx.entityVectors[id])
	}
	return learn.Sign(eps)
}

func storeLabels(t *testing.T, s StripeStore) map[int64]int {
	t.Helper()
	c, err := s.Cursor(math.Inf(-1), math.Inf(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out := map[int64]int{}
	for {
		e, ok, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out[e.ID] = int(e.Label)
	}
}

// TestDiskSweepMatchesMemory sweeps the same band over a disk stripe
// and a memory stripe built from the same entities and stored model,
// and compares every row's maintained label with the other store and
// with a brute-force oracle. The disk stripe's pool holds four pages,
// so the sweep's in-place patches are evicted and read back through
// the file; one entity is an overflow record whose label flips.
func TestDiskSweepMatchesMemory(t *testing.T) {
	fx := newSweepFixture(t, 11, 3000)
	disk, err := newDiskStripeStore(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	mem := newMemStripeStore()
	for _, s := range []StripeStore{disk, mem} {
		if err := s.Load(fx.entities, fx.stored.Predict); err != nil {
			t.Fatal(err)
		}
		if err := s.Rebuild(fx.stored.Activation); err != nil {
			t.Fatal(err)
		}
	}
	if pages := disk.dt.heap.NumPages(); pages < 40 {
		t.Fatalf("heap has %d pages; too few to force evictions through a 4-page pool", pages)
	}
	before := disk.dt.pool.Stats().Evictions
	nd, err := disk.SweepBand(fx.lo, fx.hi, fx.cur.Predict)
	if err != nil {
		t.Fatal(err)
	}
	nm, err := mem.SweepBand(fx.lo, fx.hi, fx.cur.Predict)
	if err != nil {
		t.Fatal(err)
	}
	if nd != nm || nd < len(fx.entities)/2 {
		t.Fatalf("swept %d rows on disk, %d in memory (of %d)", nd, nm, len(fx.entities))
	}
	if disk.dt.pool.Stats().Evictions == before {
		t.Fatal("the sweep evicted nothing: patched pages were never written back")
	}
	got, ref := storeLabels(t, disk), storeLabels(t, mem)
	if len(got) != len(fx.entities) || len(ref) != len(fx.entities) {
		t.Fatalf("disk has %d rows, memory %d, want %d", len(got), len(ref), len(fx.entities))
	}
	flips := 0
	for _, e := range fx.entities {
		want := fx.want(e.ID)
		if got[e.ID] != want || ref[e.ID] != want {
			t.Fatalf("entity %d: disk %d, memory %d, want %d", e.ID, got[e.ID], ref[e.ID], want)
		}
		if want != learn.Sign(fx.storedEps[e.ID]) {
			flips++
		}
	}
	if flips < 10 {
		t.Fatalf("only %d labels flipped; the sweep wrote almost nothing", flips)
	}
	if got[fx.bigID] == learn.Sign(fx.storedEps[fx.bigID]) {
		t.Fatal("the overflow entity's label did not flip")
	}
}

// TestDiskSweepAllocations pins the sweep's cost per row: a warm sweep
// over a band of well over 1,000 rows pins each heap page once per run
// of band rows, not each row, and allocates a small constant per call
// beyond the buffer pool's own bookkeeping (one LRU element each time
// a pinned page is released, which is per pin, not per row).
func TestDiskSweepAllocations(t *testing.T) {
	entities := testEntities(rand.New(rand.NewSource(3)), 8000)
	s, err := newDiskStripeStore(t.TempDir(), 256)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	stored := &learn.Model{W: []float64{1, 1}, B: 1}
	cur := &learn.Model{W: []float64{1.1, 0.9}, B: 1}
	if err := s.Load(entities, stored.Predict); err != nil {
		t.Fatal(err)
	}
	if err := s.Rebuild(stored.Activation); err != nil {
		t.Fatal(err)
	}
	lo, hi := -0.3, 0.3
	rows, err := s.CountRange(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if rows < 1000 {
		t.Fatalf("band has %d rows, want ≥ 1000", rows)
	}
	predict := cur.Predict
	sweep := func() {
		if n, err := s.SweepBand(lo, hi, predict); err != nil || n != rows {
			t.Fatalf("swept %d of %d rows: %v", n, rows, err)
		}
	}
	sweep() // flips the band's labels; later sweeps only read
	st0 := s.dt.pool.Stats()
	sweep()
	st1 := s.dt.pool.Stats()
	pins := (st1.Hits + st1.Misses) - (st0.Hits + st0.Misses)
	if pins > int64(rows/20) {
		t.Fatalf("one sweep of %d rows pinned %d pages", rows, pins)
	}
	allocs := testing.AllocsPerRun(5, sweep)
	t.Logf("one sweep of %d rows: %d page pins, %v allocations", rows, pins, allocs)
	if allocs > float64(pins)+8 {
		t.Fatalf("one sweep of %d rows allocates %v times (%d page pins)", rows, allocs, pins)
	}
}

// TestDiskCountRange checks CountRange against a brute-force count
// with entries tied at both bounds, including ones inserted after the
// last rebuild.
func TestDiskCountRange(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var entities []Entity
	for i := 0; i < 600; i++ {
		// Few distinct vectors, so eps values repeat.
		f := vector.NewDense([]float64{float64(r.Intn(7)), float64(r.Intn(7))})
		entities = append(entities, Entity{ID: int64(i), F: f})
	}
	s, err := newDiskStripeStore(t.TempDir(), 16)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m := &learn.Model{W: []float64{1, 1}, B: 6}
	if err := s.Load(entities, m.Predict); err != nil {
		t.Fatal(err)
	}
	if err := s.Rebuild(m.Activation); err != nil {
		t.Fatal(err)
	}
	eps := map[int64]float64{}
	for _, e := range entities {
		eps[e.ID] = m.Activation(e.F)
	}
	// Later inserts land exactly on the bounds and between them.
	next := int64(len(entities))
	for _, x := range []float64{-2, -2, 0, 3, 3, 5} {
		f := vector.NewDense([]float64{x + 6, 0})
		if err := s.Insert(next, m.Activation(f), learn.Sign(x), f); err != nil {
			t.Fatal(err)
		}
		eps[next] = m.Activation(f)
		next++
	}
	for _, b := range [][2]float64{{-2, 3}, {-2, -2}, {3, 3}, {-6, 8}, {math.Inf(-1), math.Inf(1)},
		{-1.5, 2.5}, {3, -2}, {100, 200}} {
		want := 0
		for _, x := range eps {
			if x >= b[0] && x <= b[1] {
				want++
			}
		}
		got, err := s.CountRange(b[0], b[1])
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("CountRange(%v, %v) = %d, want %d", b[0], b[1], got, want)
		}
	}
}
