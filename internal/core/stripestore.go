package core

import (
	"hazy/internal/learn"
	"hazy/internal/vector"
)

// StripeStore is the physical layout of one stripe of a partition-
// striped view. The StripedView above it owns everything the paper's
// maintenance logic needs regardless of layout — the shared model, the
// per-stripe Watermark and Skiing accumulator, and the eager/lazy
// policy decisions — while the store owns the eps-clustered entity
// records themselves. One implementation exists per architecture:
//
//   - memStripeStore: an immutable main-memory segment plus a band
//     overlay and an insert delta (Hazy-MM, §3.5.1),
//   - diskStripeStore: a per-stripe generation file of heap pages with
//     a clustered B+-tree on (eps, id) behind its own buffer pool
//     (Hazy-OD), and
//   - hybridStripeStore: the disk store plus the §3.5.2 in-memory
//     summaries (ε-map and boundary buffer).
//
// These are the only Hazy-strategy layouts: an unstriped Hazy view of
// any architecture is a StripedView with one stripe.
//
// A store is single-writer: every mutating call happens either on the
// view caller's goroutine or on the pool worker that owns the stripe
// for one parallel section. Stores never share mutable state across
// stripes, which is what makes the scatter safe.
type StripeStore interface {
	// Len returns the number of stored entities.
	Len() int
	// Has reports whether id is stored (no IO beyond the id index).
	Has(id int64) bool
	// Load bulk-inserts the initial entity set in arrival order with
	// eps = 0 and class = classOf(f). The caller always follows Load
	// with Rebuild (the initial clustering), so implementations may
	// defer index construction to it.
	Load(entities []Entity, classOf func(f vector.Vector) int) error
	// Insert places one new, already-classified entity at its
	// clustered position: eps is taken under the stripe's stored
	// model, class under the current model.
	Insert(id int64, eps float64, class int, f vector.Vector) error
	// EpsOf returns id's stored eps (the clustering key under the
	// stripe's stored model).
	EpsOf(id int64) (float64, error)
	// Label answers a Single Entity read for id — the layout's form of
	// the App. B.4 lookup: the stored eps against wm first; inside the
	// band, the maintained class when eager, else the feature vector
	// classified under cur. It must not mutate maintenance state.
	Label(id int64, wm *Watermark, cur *learn.Model, eager bool) (int, error)
	// Rebuild reclusters the stripe: every record's eps is recomputed
	// with epsOf, records are rewritten in (eps, id) order, and class
	// becomes sign(eps) — the physical reorganization step whose
	// measured duration seeds the Skiing cost S.
	Rebuild(epsOf func(f vector.Vector) float64) error
	// SweepBand reclassifies the records with eps ∈ [lo, hi] under
	// predict (the eager incremental step) and returns how many
	// records it examined. predict must not retain f: stores pass
	// views of their own columns or of a scratch vector that the next
	// record overwrites.
	SweepBand(lo, hi float64, predict func(f vector.Vector) int) (int, error)
	// ScanKeysAbove visits the ids with eps > hi, without touching
	// feature vectors — the All Members fast path above high water.
	ScanKeysAbove(hi float64, fn func(id int64) error) error
	// CountRange returns the number of records with eps ∈ [lo, hi].
	CountRange(lo, hi float64) (int, error)
	// NearestZero returns up to k entries ordered by |eps|, negative
	// side first on ties (labels are not resolved).
	NearestZero(k int) ([]SnapEntry, error)
	// Cursor streams the records with eps ∈ [lo, hi] in (eps, id)
	// order, resolving each row's label through res (nil means the
	// maintained class is exact — the eager fast path). The cursor
	// must not mutate maintenance state.
	Cursor(lo, hi float64, res *LabelResolver) (RowCursor, error)
	// Freeze exports the stripe as an immutable version for a
	// Snapshot, every label resolved through res (nil: the maintained
	// class); [lw, hw] is the stripe's band, outside which the stored
	// labels are certain. The main-memory store shares its segment and
	// copies only the band and the delta; the disk stores materialize
	// every row.
	Freeze(lw, hw float64, res *LabelResolver) (*memVersion, error)
	// Close releases any backing resources (page files, pools).
	Close() error
}

// LabelResolver resolves a stored row's serving label without
// mutating maintenance state — the lazy-mode read discipline shared
// by every layout: Test applies the watermark certainty check to the
// stored eps, and Predict classifies against the current model when
// the row lies inside the band. Layouts use it to defer feature-
// vector decoding to exactly the uncertain rows (the on-disk cursor
// never touches the heap for rows outside the band). Predict must not
// retain f, which may be a scratch vector the next row overwrites.
type LabelResolver struct {
	Test    func(eps float64) (label int, certain bool)
	Predict func(f vector.Vector) int
}

// resolve labels one main-memory row given its stored eps, maintained
// class, and feature vector; a nil resolver keeps the class.
func (r *LabelResolver) resolve(eps float64, class int8, f vector.Vector) int8 {
	if r == nil {
		return class
	}
	if label, certain := r.Test(eps); certain {
		return int8(label)
	}
	return int8(r.Predict(f))
}
