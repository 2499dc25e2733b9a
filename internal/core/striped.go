package core

import (
	"fmt"
	"path/filepath"
	"strconv"
	"time"

	"hazy/internal/learn"
	"hazy/internal/obs"
	"hazy/internal/sched"
	"hazy/internal/vector"
)

// StripedView is the partition-striped layout, generic over the
// paper's architecture spectrum: the entity set is hash-partitioned
// into P independent stripes, each with its own eps-clustered
// StripeStore, watermark pair, and Skiing accumulator, while the
// model stays global (trained once, shared by every stripe). The
// store decides where the stripe physically lives — main-memory
// segments, per-stripe on-disk B+-tree generations behind private
// buffer pools, or the hybrid's disk-plus-ε-map — and this layer owns
// everything else: reorganization policy, eager sweeps, the lazy
// waste discipline, and the scatter/gather read paths.
//
// Reorganization, band sweeps, inserts, full rescans, and snapshot
// export all scatter across the stripes on the shared maintenance
// pool (internal/sched), so the reorganization cost S — the quantity
// the Skiing strategy amortizes against — scales with the stripe size
// n/P instead of the view size n, and a multi-core host reorganizes P
// stripes concurrently while sharing one parallelism budget with
// every other view's maintenance. For disk-resident stripes the same
// factor bounds the write stall: one reorganization event rewrites
// n/P records, not n.
//
// Correctness rests on the watermark guarantee holding per stripe:
// each stripe's Watermark carries its own stored model (the model of
// that stripe's last reorganization) and its own corpus constant M
// over just that stripe's entities, so Lemma 3.1 applies to the
// stripe exactly as it applies to an unstriped view. Labels are
// therefore identical to a single-stripe view fed the same updates;
// only eps values (taken against per-stripe stored models) may differ
// once stripes reorganize at different times.
//
// With one stripe this is the whole of one Hazy architecture — Hazy-MM
// (§3.5.1), Hazy-OD, or the hybrid (§3.5.2): the Hazy strategy has no
// other implementation, so an "unstriped" Hazy view is a one-stripe
// StripedView.
//
// A batch observes only the batch-final model into each stripe's
// watermarks. That is sound because intermediate models inside a
// batch never stamp labels and never serve reads — the extrema of
// Eq. (2) only need to cover every model that did either — and it
// keeps the per-stripe observation cost at one drift norm per batch
// instead of one per example.
//
// Like the naive layouts, a StripedView requires external
// serialization between writers and readers (the database's statement
// mutex, DB.StatementMu; the serving engine; or single-threaded use);
// every parallel section is bounded by the call that opened it (the
// pool's scatter barrier).
type StripedView struct {
	opts    Options
	arch    Arch
	trainer *learn.SGD // global model, shared by all stripes
	stripes []*stripe
	pool    *sched.Pool
	stats   Stats
}

// stripe is one hash partition's maintenance state: a private
// eps-clustered store with its own watermarks and Skiing accumulator.
// All mutation happens either on the caller's goroutine or on a
// worker-pool goroutine that owns the stripe for the duration of one
// parallel section; stripes never share mutable state.
type stripe struct {
	store        StripeStore
	wm           *Watermark
	sk           *Skiing
	met          *viewMetrics
	reclassified int64
}

// stripeOf maps an entity id to its stripe (Fibonacci hashing keeps
// sequential id ranges spread evenly).
func stripeOf(id int64, n int) int {
	h := uint64(id) * 0x9E3779B97F4A7C15
	return int((h >> 32) % uint64(n))
}

// stripeDir is the per-stripe subdirectory for disk-resident layouts.
func stripeDir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("stripe-%03d", i))
}

// stripePoolPages splits a view's buffer-pool budget across the
// stripes' private pools. 0 keeps each stripe on the store default; a
// small floor keeps tiny shares workable.
func stripePoolPages(poolPages, partitions int) int {
	if poolPages <= 0 {
		return 0
	}
	per := poolPages / partitions
	if per < 16 {
		per = 16
	}
	return per
}

// NewStriped builds a main-memory view with the Hazy strategy
// (Hazy-MM), hash-partitioned into partitions stripes; 1 is the
// unstriped view. partitions must be ≥ 1; each stripe is clustered by
// its own initial reorganization, in parallel.
func NewStriped(entities []Entity, partitions int, opts Options) (*StripedView, error) {
	return newStripedView(entities, partitions, opts, MainMemory,
		func(int) (StripeStore, error) { return newMemStripeStore(), nil })
}

// NewStripedDisk builds an on-disk view with the Hazy strategy (Hazy-
// OD), hash-partitioned into partitions stripes; 1 is the unstriped
// view. Each stripe keeps its own clustered generation file (heap +
// B+-tree) in a subdirectory of dir behind a private share of the
// poolPages buffer-pool budget, so per-stripe reorganizations rewrite
// n/P records with batched page IO and no cross-stripe page or latch
// contention.
func NewStripedDisk(dir string, poolPages int, entities []Entity, partitions int, opts Options) (*StripedView, error) {
	per := stripePoolPages(poolPages, partitions)
	return newStripedView(entities, partitions, opts, OnDisk,
		func(i int) (StripeStore, error) { return newDiskStripeStore(stripeDir(dir, i), per) })
}

// NewStripedHybrid builds a hybrid view (§3.5.2), hash-partitioned
// into partitions stripes; 1 is the unstriped view. It is the on-disk
// layout plus a per-stripe ε-map and boundary buffer, rebuilt after
// every per-stripe reorganization.
func NewStripedHybrid(dir string, poolPages int, entities []Entity, partitions int, opts Options) (*StripedView, error) {
	opts = opts.withDefaults()
	per := stripePoolPages(poolPages, partitions)
	return newStripedView(entities, partitions, opts, HybridArch,
		func(i int) (StripeStore, error) {
			return newHybridStripeStore(stripeDir(dir, i), per, opts.BufferFrac)
		})
}

// newStripedView routes the entity set to its stripes, builds one
// store per stripe via newStore, and runs the initial clustering
// reorganizations in parallel on the shared pool.
func newStripedView(entities []Entity, partitions int, opts Options, arch Arch, newStore func(i int) (StripeStore, error)) (*StripedView, error) {
	if partitions < 1 {
		return nil, fmt.Errorf("core: partitions must be >= 1, got %d", partitions)
	}
	opts = opts.withDefaults()
	v := &StripedView{
		opts:    opts,
		arch:    arch,
		trainer: learn.NewSGD(opts.SGD),
		stripes: make([]*stripe, partitions),
		pool:    opts.Pool,
	}
	if v.pool == nil {
		v.pool = sched.Default()
	}
	for _, ex := range opts.Warm {
		v.trainer.Train(ex.F, ex.Label)
	}
	for i := range v.stripes {
		store, err := newStore(i)
		if err != nil {
			v.Close()
			return nil, err
		}
		v.stripes[i] = &stripe{
			store: store,
			wm:    NewWatermark(opts.Norm),
			sk:    NewSkiing(opts.Alpha),
			met: newViewMetrics(opts.Metrics,
				obs.L("view", opts.MetricsName, "stripe", strconv.Itoa(i))...),
		}
	}
	parts := [][]Entity{entities} // one stripe holds every entity: no copy
	if partitions > 1 {
		parts = make([][]Entity, partitions)
		for _, e := range entities {
			s := stripeOf(e.ID, partitions)
			parts[s] = append(parts[s], e)
		}
	}
	cur := v.trainer.Model()
	err := v.forStripes(func(i int, st *stripe) error {
		q := st.wm.Q()
		var m float64
		for _, e := range parts[i] {
			if n := e.F.Norm(q); n > m {
				m = n
			}
		}
		st.wm.M = m
		if err := st.store.Load(parts[i], cur.Predict); err != nil {
			return err
		}
		return st.reorganize(cur)
	})
	if err != nil {
		v.Close()
		return nil, err
	}
	return v, nil
}

// Stripes returns the partition count.
func (v *StripedView) Stripes() int { return len(v.stripes) }

// Arch returns the physical architecture the stripes are stored in.
func (v *StripedView) Arch() Arch { return v.arch }

// Model returns the shared model.
func (v *StripedView) Model() *learn.Model { return v.trainer.Model() }

// Close releases every stripe's backing resources (a no-op for the
// main-memory layout).
func (v *StripedView) Close() error {
	var first error
	for _, st := range v.stripes {
		if st == nil || st.store == nil {
			continue
		}
		if err := st.store.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// forStripes runs fn once per stripe as a scatter on the shared
// maintenance pool and waits for all of them — the single gather
// barrier every parallel section ends with. The calling goroutine
// participates and idle pool workers steal the rest, so this is
// deadlock-free even when the caller is itself a pool worker (an
// engine quantum applying a batch to this view). A panicking fn
// cannot kill the process or a shared worker: the pool re-raises the
// first panic on this caller (as a *sched.TaskPanic) only after every
// stripe task has finished, so no stripe is mid-mutation when the
// caller unwinds. fn receives the stripe's index so call sites can
// write into per-stripe output slots directly; the first non-nil
// error (in stripe order) is returned after every stripe finished.
func (v *StripedView) forStripes(fn func(i int, st *stripe) error) error {
	errs := make([]error, len(v.stripes))
	v.pool.RunAll(len(v.stripes), func(i int) { errs[i] = fn(i, v.stripes[i]) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// reorganize re-clusters one stripe on eps under cur, resets its
// watermarks, and records the measured per-stripe cost S.
func (st *stripe) reorganize(cur *learn.Model) error {
	start := time.Now()
	st.wm.Reset(cur, st.wm.M)
	st.met.observeWMReset()
	if err := st.store.Rebuild(st.wm.Eps); err != nil {
		return err
	}
	elapsed := time.Since(start)
	st.sk.DidReorganize(elapsed)
	st.met.observeReorg(elapsed)
	return nil
}

// maintain folds the batch-final model into one stripe's watermarks
// and runs its reorganize-or-sweep decision (the eager per-batch
// maintenance step).
func (st *stripe) maintain(cur *learn.Model, reorg ReorgPolicy, lazy bool) error {
	lw, hw := st.wm.Observe(cur)
	if reorg == ReorgAlways {
		return st.reorganize(cur)
	}
	if lazy {
		return nil
	}
	if reorg == ReorgSkiing && st.sk.ShouldReorganize() {
		return st.reorganize(cur)
	}
	start := time.Now()
	n, err := st.store.SweepBand(lw, hw, cur.Predict)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	st.reclassified += int64(n)
	st.sk.AddCost(elapsed)
	st.met.observeSweep(n, elapsed)
	return nil
}

// Update folds in one training example — a batch of one.
func (v *StripedView) Update(f vector.Vector, label int) error {
	return v.UpdateBatch([]learn.Example{{F: f, Label: label}})
}

// UpdateBatch group-applies a run of training examples: the SGD steps
// run sequentially on the shared model (SGD is inherently ordered),
// then every stripe observes the batch-final model and makes its
// reorganize-or-sweep decision in parallel. One publish-shaped gather
// barrier per batch, however many stripes ran.
func (v *StripedView) UpdateBatch(examples []learn.Example) error {
	if len(examples) == 0 {
		return nil
	}
	for _, ex := range examples {
		v.trainer.Train(ex.F, ex.Label)
		v.stats.Updates++
	}
	cur := v.trainer.Model()
	lazy := v.opts.Mode == Lazy
	return v.forStripes(func(_ int, st *stripe) error {
		return st.maintain(cur, v.opts.Reorg, lazy)
	})
}

// insertOne classifies and places one entity into its stripe's
// clustered position (the caller has already routed e to st).
func (st *stripe) insertOne(e Entity, cur *learn.Model) error {
	if st.store.Has(e.ID) {
		return fmt.Errorf("core: duplicate entity %d", e.ID)
	}
	st.wm.ObserveEntity(e.F)
	st.wm.Observe(cur)
	return st.store.Insert(e.ID, st.wm.Eps(e.F), cur.Predict(e.F), e.F)
}

// Insert adds a new entity, classified under the current model, to
// its hash stripe.
func (v *StripedView) Insert(e Entity) error {
	return v.stripes[stripeOf(e.ID, len(v.stripes))].insertOne(e, v.trainer.Model())
}

// InsertBatch scatters a run of entity inserts to their stripes and
// applies each stripe's share in parallel, preserving arrival order
// within a stripe. The returned slice has one error slot per entity,
// positionally; a failed insert (duplicate id) rejects only that
// entity.
func (v *StripedView) InsertBatch(entities []Entity) []error {
	errs := make([]error, len(entities))
	byStripe := make([][]int, len(v.stripes))
	for i, e := range entities {
		s := stripeOf(e.ID, len(v.stripes))
		byStripe[s] = append(byStripe[s], i)
	}
	cur := v.trainer.Model()
	v.forStripes(func(s int, st *stripe) error {
		for _, i := range byStripe[s] {
			errs[i] = st.insertOne(entities[i], cur)
		}
		return nil
	})
	return errs
}

// Label answers a Single Entity read through the stripe store's form
// of the App. B.4 lookup: the stored eps against the stripe's
// watermarks first; inside the band, the maintained class (eager) or
// the feature vector classified under the current model (lazy). The
// hybrid store answers from its ε-map and boundary buffer before
// touching disk, and counts where each read was served (Hits).
func (v *StripedView) Label(id int64) (int, error) {
	st := v.stripes[stripeOf(id, len(v.stripes))]
	return st.store.Label(id, st.wm, v.trainer.Model(), v.opts.Mode == Eager)
}

// Hits reports how many Single Entity reads the hybrid stripes served
// from their ε-maps, their boundary buffers, and disk, respectively
// (App. B.4; all zero for the other layouts).
func (v *StripedView) Hits() (epsMap, buffer, disk int64) {
	for _, st := range v.stripes {
		if h, ok := st.store.(*hybridStripeStore); ok {
			e, b, d := h.Hits()
			epsMap, buffer, disk = epsMap+e, buffer+b, disk+d
		}
	}
	return epsMap, buffer, disk
}

// members drives an All Members read: scatter to the stripes in
// parallel (each collecting into its own slice — no shared state),
// gather in stripe order. Lazy mode accrues each stripe's waste into
// that stripe's Skiing accumulator and may reorganize the stripe,
// which is why lazy Members must be serialized against writers.
func (v *StripedView) members(fn func(id int64)) error {
	cur := v.trainer.Model()
	lazy := v.opts.Mode == Lazy
	out := make([][]int64, len(v.stripes))
	err := v.forStripes(func(i int, st *stripe) error {
		ids := &out[i]
		lw, hw := st.wm.Band()
		if !lazy {
			// Eager: labels are current; all positives live at eps ≥ lw.
			// Band rows read their maintained class; above high water
			// the ids come straight from the clustering.
			c, err := st.store.Cursor(lw, hw, nil)
			if err != nil {
				return err
			}
			defer c.Close()
			for {
				e, ok, err := c.Next()
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				if e.Label > 0 {
					*ids = append(*ids, e.ID)
				}
			}
			return st.store.ScanKeysAbove(hw, func(id int64) error {
				*ids = append(*ids, id)
				return nil
			})
		}
		// Lazy (§3.4): everything above high water is a member; the
		// band is classified against the current model; waste accrues
		// toward this stripe's reorganization.
		start := time.Now()
		nPos, nRead, band := 0, 0, 0
		if err := st.store.ScanKeysAbove(hw, func(id int64) error {
			*ids = append(*ids, id)
			nPos++
			nRead++
			return nil
		}); err != nil {
			return err
		}
		bandStart := time.Now()
		res := &LabelResolver{Test: st.wm.Test, Predict: cur.Predict}
		c, err := st.store.Cursor(lw, hw, res)
		if err != nil {
			return err
		}
		defer c.Close()
		for {
			e, ok, err := c.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			nRead++
			band++
			if e.Label > 0 {
				*ids = append(*ids, e.ID)
				nPos++
			}
		}
		st.reclassified += int64(band)
		st.met.observeSweep(band, time.Since(bandStart))
		elapsed := time.Since(start)
		if nRead > 0 {
			waste := time.Duration(float64(elapsed) * float64(nRead-nPos) / float64(nRead))
			st.sk.AddWaste(waste)
		}
		if v.opts.Reorg == ReorgSkiing && st.sk.ShouldReorganize() {
			return st.reorganize(cur)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, ids := range out {
		for _, id := range ids {
			fn(id)
		}
	}
	return nil
}

// Members returns the ids labeled +1, in unspecified order.
func (v *StripedView) Members() ([]int64, error) {
	var out []int64
	err := v.members(func(id int64) { out = append(out, id) })
	return out, err
}

// CountMembers returns |{id : label(id) = +1}|.
func (v *StripedView) CountMembers() (int, error) {
	n := 0
	err := v.members(func(int64) { n++ })
	return n, err
}

// Retrain rebuilds the shared model from scratch on examples and
// reorganizes every stripe against it, in parallel.
func (v *StripedView) Retrain(examples []learn.Example) error {
	v.trainer = learn.NewSGD(v.opts.SGD)
	for _, ex := range examples {
		v.trainer.Train(ex.F, ex.Label)
	}
	cur := v.trainer.Model()
	return v.forStripes(func(_ int, st *stripe) error { return st.reorganize(cur) })
}

// MostUncertain returns up to k entity ids nearest the decision
// boundary: each stripe walks outward from its own eps = 0 (per-
// stripe stored models make eps stripe-local), then the per-stripe
// walks merge into the order one walk over the merged stripes visits.
func (v *StripedView) MostUncertain(k int) ([]int64, error) {
	if k <= 0 {
		return nil, nil
	}
	cand := make([][]SnapEntry, len(v.stripes))
	err := v.forStripes(func(i int, st *stripe) error {
		var err error
		cand[i], err = st.store.NearestZero(k)
		return err
	})
	if err != nil {
		return nil, err
	}
	return gatherUncertain(cand, k), nil
}

// Stats aggregates maintenance counters across the stripes. LowWater
// and HighWater report the widest band over any stripe (the
// conservative envelope); LastReorgNs reports the slowest stripe's
// most recent reorganization — the write stall one reorganization
// event imposes, which striping bounds at n/P records.
func (v *StripedView) Stats() Stats {
	s := v.stats
	for i := range v.stripes {
		ss := v.StripeStats(i)
		s.Reorgs += ss.Reorgs
		s.IncSteps += ss.IncSteps
		s.Reclassified += ss.Reclassified
		s.BandTuples += ss.BandTuples
		s.EpsMapBytes += ss.EpsMapBytes
		s.BufferBytes += ss.BufferBytes
		if i == 0 || ss.LowWater < s.LowWater {
			s.LowWater = ss.LowWater
		}
		if i == 0 || ss.HighWater > s.HighWater {
			s.HighWater = ss.HighWater
		}
		s.LastReorgNs = max(s.LastReorgNs, ss.LastReorgNs)
	}
	return s
}

// StripeStats returns one stripe's maintenance counters, including the
// hybrid store's in-memory footprint (Figure 6(A)).
func (v *StripedView) StripeStats(i int) Stats {
	st := v.stripes[i]
	var s Stats
	s.Reorgs = st.sk.Reorgs()
	s.IncSteps = st.sk.IncSteps()
	s.Reclassified = st.reclassified
	s.LowWater, s.HighWater = st.wm.Band()
	if n, err := st.store.CountRange(s.LowWater, s.HighWater); err == nil {
		s.BandTuples = n
	}
	s.LastReorgNs = st.sk.S().Nanoseconds()
	if h, ok := st.store.(*hybridStripeStore); ok {
		s.EpsMapBytes, s.BufferBytes = h.MemoryFootprint()
	}
	return s
}

// Snapshot publishes the view: every stripe freezes a version in
// parallel (for the main-memory store the shared segment plus a copy
// of its band overlay and insert delta), under one clone of the
// current model. One barrier, one publishable object; reads gather
// across the stripes.
func (v *StripedView) Snapshot() (*Snapshot, error) {
	cur := v.trainer.Model()
	lazy := v.opts.Mode == Lazy
	vers := make([]*memVersion, len(v.stripes))
	err := v.forStripes(func(i int, st *stripe) error {
		var res *LabelResolver
		if lazy {
			res = &LabelResolver{Test: st.wm.Test, Predict: cur.Predict}
		}
		lw, hw := st.wm.Band()
		var err error
		vers[i], err = st.store.Freeze(lw, hw, res)
		return err
	})
	if err != nil {
		return nil, err
	}
	return newSnapshot(cur.Clone(), vers, true, v.Stats()), nil
}

func snapLess(a, b SnapEntry) bool {
	if a.Eps != b.Eps {
		return a.Eps < b.Eps
	}
	return a.ID < b.ID
}

// Eps index ----------------------------------------------------------

// Clustered reports that every stripe keeps the eps clustering.
func (v *StripedView) Clustered() bool { return true }

// EpsOf returns the entity's eps under its stripe's stored model.
func (v *StripedView) EpsOf(id int64) (float64, error) {
	st := v.stripes[stripeOf(id, len(v.stripes))]
	return st.store.EpsOf(id)
}

// ScanEpsStripe streams one stripe's rows with eps ∈ [lo, hi], eps-
// ascending — the scatter half of a scatter-gather read; ScanEps
// below is the gather half.
func (v *StripedView) ScanEpsStripe(i int, lo, hi float64) (RowCursor, error) {
	if i < 0 || i >= len(v.stripes) {
		return nil, fmt.Errorf("core: no stripe %d", i)
	}
	st := v.stripes[i]
	var res *LabelResolver
	if v.opts.Mode == Lazy {
		res = &LabelResolver{Test: st.wm.Test, Predict: v.trainer.Model().Predict}
	}
	return st.store.Cursor(lo, hi, res)
}

// mergeRowCursor gathers P eps-ascending cursors into one (eps, id)-
// ordered stream.
type mergeRowCursor struct {
	curs  []RowCursor
	heads []SnapEntry
	live  []bool
}

func newMergeRowCursor(curs []RowCursor) (*mergeRowCursor, error) {
	m := &mergeRowCursor{curs: curs, heads: make([]SnapEntry, len(curs)), live: make([]bool, len(curs))}
	for i, c := range curs {
		e, ok, err := c.Next()
		if err != nil {
			m.Close()
			return nil, err
		}
		m.heads[i], m.live[i] = e, ok
	}
	return m, nil
}

func (m *mergeRowCursor) Next() (SnapEntry, bool, error) {
	best := -1
	for i := range m.curs {
		if !m.live[i] {
			continue
		}
		if best < 0 || snapLess(m.heads[i], m.heads[best]) {
			best = i
		}
	}
	if best < 0 {
		return SnapEntry{}, false, nil
	}
	out := m.heads[best]
	e, ok, err := m.curs[best].Next()
	if err != nil {
		return SnapEntry{}, false, err
	}
	m.heads[best], m.live[best] = e, ok
	return out, true, nil
}

// NextBatch merges rows until dst is full or every input is dry. The
// merge itself is row-at-a-time (it must interleave inputs), but the
// batch form amortizes the executor's per-call overhead.
func (m *mergeRowCursor) NextBatch(dst []SnapEntry) (int, error) {
	n := 0
	for n < len(dst) {
		e, ok, err := m.Next()
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		dst[n] = e
		n++
	}
	return n, nil
}

func (m *mergeRowCursor) Close() {
	for _, c := range m.curs {
		if c != nil {
			c.Close()
		}
	}
}

// gatherCursors opens one cursor per stripe and merges them in
// (eps, id) order. A single stripe's cursor is already in that order
// and keeps its bulk NextBatch.
func gatherCursors(n int, open func(i int) (RowCursor, error)) (RowCursor, error) {
	if n == 1 {
		return open(0)
	}
	curs := make([]RowCursor, n)
	for i := range curs {
		c, err := open(i)
		if err != nil {
			// The cursors already open may hold page pins.
			(&mergeRowCursor{curs: curs}).Close()
			return nil, err
		}
		curs[i] = c
	}
	return newMergeRowCursor(curs)
}

// ScanEps streams the rows with eps ∈ [lo, hi] across all stripes,
// merged in (eps, id) order.
func (v *StripedView) ScanEps(lo, hi float64) (RowCursor, error) {
	return gatherCursors(len(v.stripes), func(i int) (RowCursor, error) {
		return v.ScanEpsStripe(i, lo, hi)
	})
}

var (
	_ View         = (*StripedView)(nil)
	_ BatchUpdater = (*StripedView)(nil)
	_ Snapshotter  = (*StripedView)(nil)
	_ EpsIndexed   = (*StripedView)(nil)
)
