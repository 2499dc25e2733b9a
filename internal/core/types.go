// Package core implements the paper's primary contribution: the
// incremental maintenance of classification views. It provides the
// watermark machinery of Lemma 3.1 / Eq. (2), the Skiing
// reorganization strategy (§3.2.1, App. B.3), and five
// architecture/strategy combinations — naive and Hazy over
// main-memory and on-disk layouts, plus the hybrid architecture of
// §3.5.2 — in both eager and lazy maintenance modes. Every Hazy view
// is a StripedView (one stripe when unstriped) over the store of its
// architecture; the naive MemView and DiskView are the from-scratch
// baselines.
//
// Every variant exposes the same View interface and, for the same
// update sequence, must produce identical view contents; they differ
// only in how much work each operation performs.
package core

import (
	"fmt"
	"math"
	"strings"

	"hazy/internal/learn"
	"hazy/internal/obs"
	"hazy/internal/sched"
	"hazy/internal/vector"
)

// Entity is one row of the In(id, f) relation: a key and its feature
// vector (the result of applying the view's feature function).
type Entity struct {
	ID int64
	F  vector.Vector
}

// Mode selects when view maintenance happens (§2.2).
type Mode int

// Maintenance modes.
const (
	// Eager maintains the materialized view on every update.
	Eager Mode = iota
	// Lazy applies the model only in response to reads.
	Lazy
)

// String names the mode.
func (m Mode) String() string {
	if m == Lazy {
		return "lazy"
	}
	return "eager"
}

// Strategy selects between the naive approach and Hazy's incremental
// data reorganization.
type Strategy int

// Maintenance strategies. The zero value is the Hazy strategy (the
// system's default); Naive is the explicit baseline.
const (
	// HazyStrategy clusters entities by eps and maintains watermarks
	// with Skiing-driven reorganization.
	HazyStrategy Strategy = iota
	// Naive is the state-of-the-art baseline: no clustering, no
	// watermarks.
	Naive
)

// String names the strategy.
func (s Strategy) String() string {
	if s == HazyStrategy {
		return "hazy"
	}
	return "naive"
}

// Arch selects the physical architecture (§3.5).
type Arch int

// Architectures.
const (
	// MainMemory keeps the classification view entirely in RAM
	// (Hazy-MM, §3.5.1).
	MainMemory Arch = iota
	// OnDisk keeps the view in heap pages behind a buffer pool.
	OnDisk
	// HybridArch keeps the ε-map and a bounded buffer in memory over
	// the on-disk structure (§3.5.2).
	HybridArch
)

// String names the architecture.
func (a Arch) String() string {
	switch a {
	case OnDisk:
		return "od"
	case HybridArch:
		return "hybrid"
	default:
		return "mm"
	}
}

// ParseMode is the case-insensitive inverse of Mode.String ("" is the
// default) — the one mapping shared by the SQL dialect and the
// catalog manifest.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(s) {
	case "", "eager":
		return Eager, nil
	case "lazy":
		return Lazy, nil
	}
	return 0, fmt.Errorf("core: unknown mode %q", s)
}

// ParseStrategy is the case-insensitive inverse of Strategy.String.
func ParseStrategy(s string) (Strategy, error) {
	switch strings.ToLower(s) {
	case "", "hazy":
		return HazyStrategy, nil
	case "naive":
		return Naive, nil
	}
	return 0, fmt.Errorf("core: unknown strategy %q", s)
}

// ParseArch is the case-insensitive inverse of Arch.String.
func ParseArch(s string) (Arch, error) {
	switch strings.ToLower(s) {
	case "", "mm":
		return MainMemory, nil
	case "od":
		return OnDisk, nil
	case "hybrid":
		return HybridArch, nil
	}
	return 0, fmt.Errorf("core: unknown architecture %q", s)
}

// ReorgPolicy selects when the Hazy strategy reorganizes — Skiing is
// the paper's strategy; Never and Always are the ablation endpoints
// of the ski-rental tradeoff (always "rent" vs always "buy").
type ReorgPolicy int

// Reorganization policies.
const (
	// ReorgSkiing reorganizes when accumulated waste reaches α·S.
	ReorgSkiing ReorgPolicy = iota
	// ReorgNever clusters once at build time and never again.
	ReorgNever
	// ReorgAlways reorganizes on every update.
	ReorgAlways
)

// String names the policy.
func (p ReorgPolicy) String() string {
	switch p {
	case ReorgNever:
		return "never"
	case ReorgAlways:
		return "always"
	default:
		return "skiing"
	}
}

// Options configures a classification view.
type Options struct {
	// Mode is Eager or Lazy.
	Mode Mode
	// Reorg selects the reorganization policy for the Hazy strategy
	// (default: Skiing).
	Reorg ReorgPolicy
	// Norm is p in Lemma 3.1; feature vectors are measured in the
	// Hölder conjugate q. Text processing uses p=∞ (q=1, §3.2.2
	// "Choosing the Norm"); dense ℓ2-normalized data uses p=q=2.
	// Defaults to ∞.
	Norm float64
	// Alpha is the Skiing parameter α; the paper uses α=1.
	Alpha float64
	// SGD configures the incremental trainer.
	SGD learn.SGDConfig
	// Warm is trained into the model before the view is first
	// materialized ("the experiment begins with a partially trained
	// (warm) model", §4.1.1). Warm examples do not count as updates.
	Warm []learn.Example
	// BufferFrac is the hybrid's buffer size as a fraction of the
	// entity count (paper default: 1%).
	BufferFrac float64
	// Partitions hash-partitions the view into this many independently
	// maintained stripes (per-stripe clustering, watermarks, and
	// Skiing, one shared model) so reorganization and rescans run in
	// parallel across a worker pool. 0 or 1 means unstriped: a
	// one-stripe StripedView, for every architecture. Values above 1
	// compose with every architecture (main-memory segments,
	// per-stripe on-disk clustered trees, per-stripe hybrid ε-maps)
	// but require the Hazy strategy — the naive strategy keeps no eps
	// clustering for the stripes to maintain.
	Partitions int
	// Metrics, when non-nil, registers per-view maintenance collectors
	// (reorg count + duration, band-sweep sizes, watermark resets) on
	// the shared registry, labeled view=MetricsName; striped views add
	// a stripe=i label per stripe. Nil leaves the view's collectors
	// unregistered (they still accumulate, at atomic-add cost).
	Metrics *obs.Registry
	// MetricsName is the view label for registered collectors.
	MetricsName string
	// Pool is the shared maintenance pool striped views scatter their
	// per-stripe parallel sections onto, so stripe parallelism and
	// engine maintenance share one budget. Nil uses the process-wide
	// default pool.
	Pool *sched.Pool
}

func (o Options) withDefaults() Options {
	if o.Norm == 0 {
		o.Norm = math.Inf(1)
	}
	if o.Alpha == 0 {
		o.Alpha = 1
	}
	if o.BufferFrac == 0 {
		o.BufferFrac = 0.01
	}
	return o
}

// Stats reports maintenance behaviour for experiments.
type Stats struct {
	// Updates is the number of training examples folded in.
	Updates int
	// Reorgs is the number of reorganization steps taken.
	Reorgs int
	// IncSteps is the number of incremental steps taken.
	IncSteps int
	// Reclassified is the total number of tuples re-examined by
	// incremental steps.
	Reclassified int64
	// BandTuples is the number of tuples currently inside
	// [lw, hw] (Figure 13's y-axis).
	BandTuples int
	// LowWater and HighWater are the current watermarks.
	LowWater, HighWater float64
	// EpsMapBytes and BufferBytes report the hybrid's memory
	// footprint (Figure 6(A)).
	EpsMapBytes, BufferBytes int64
	// LastReorgNs is the measured cost S of the most recent
	// reorganization, in nanoseconds. For striped views it reports
	// the slowest single stripe's last reorganization — the write
	// stall one reorganization event imposes, which striping bounds
	// at n/P records instead of n.
	LastReorgNs int64
}

// View is a maintained classification view V(id, class). All
// implementations agree on contents for the same inputs.
type View interface {
	// Update adds one training example (SQL INSERT into the examples
	// table) and performs the mode's maintenance.
	Update(f vector.Vector, label int) error
	// Insert adds a new entity (type-1 dynamic data, §1): it is
	// classified under the current model and stored.
	Insert(e Entity) error
	// Label answers a Single Entity read: the class of entity id.
	Label(id int64) (int, error)
	// Members answers an All Members read: the ids labeled +1, in
	// unspecified order.
	Members() ([]int64, error)
	// CountMembers answers "how many entities with label 1 are
	// there?" (§4.1.2) — the same scan without materializing ids.
	CountMembers() (int, error)
	// Model returns the current model (w(i), b(i)).
	Model() *learn.Model
	// Retrain discards the model and retrains from scratch on the
	// given examples, then brings the view up to date. The paper uses
	// this for deletions and label changes of training examples
	// (§2.2 footnote: "Hazy supports deletion and change of labels by
	// retraining the model from scratch").
	Retrain(examples []learn.Example) error
	// Stats returns maintenance counters.
	Stats() Stats
}
