package engine

import (
	"fmt"
	"strings"

	"hazy/internal/obs"
)

// histBuckets is the number of power-of-two batch-size buckets:
// 1, 2–3, 4–7, …, ≥128.
const histBuckets = 8

// publishBuckets is the number of power-of-two publish-time buckets in
// microseconds: 0–1, 2–3, …, ≥2^23 (about 8 s).
const publishBuckets = 24

// engineCounters are the engine's serving counters, held as obs
// collectors so the same atomics back both the STATS wire line and
// the shared metrics registry. The hot-path cost is unchanged from
// the original hand-rolled atomics: one atomic add per touch.
type engineCounters struct {
	enqueued *obs.Counter
	applied  *obs.Counter
	trains   *obs.Counter
	adds     *obs.Counter
	batches  *obs.Counter
	maxBatch *obs.Gauge
	errors   *obs.Counter
	hist     *obs.Histogram
	publish  *obs.Histogram
}

// initCounters registers the engine's collectors on reg (nil: they
// stay private and unregistered) labeled view=name. Registration
// replaces any collectors from a previously attached engine, so the
// registry — and the STATS line — always reads the live engine's
// counters, fresh from attach.
func (c *engineCounters) initCounters(reg *obs.Registry, name string) {
	lbl := obs.L("view", name)
	c.enqueued = reg.Counter("hazy_engine_ops_enqueued_total", "update ops accepted onto the engine queue", lbl...)
	c.applied = reg.Counter("hazy_engine_ops_applied_total", "update ops completed (including barriers)", lbl...)
	c.trains = reg.Counter("hazy_engine_trains_total", "applied example (train) ops", lbl...)
	c.adds = reg.Counter("hazy_engine_adds_total", "applied entity (add) ops", lbl...)
	c.batches = reg.Counter("hazy_engine_batches_total", "group-applied batches drained", lbl...)
	c.maxBatch = reg.Gauge("hazy_engine_batch_max", "largest batch drained so far", lbl...)
	c.errors = reg.Counter("hazy_engine_errors_total", "failed asynchronous ops", lbl...)
	c.hist = reg.Histogram("hazy_engine_batch_size", "power-of-two histogram of drained batch sizes", histBuckets, lbl...)
	c.publish = reg.Histogram("hazy_engine_publish_us", "power-of-two histogram of snapshot publish time per applied batch, microseconds", publishBuckets, lbl...)
}

func (c *engineCounters) observeBatch(n int) {
	c.batches.Inc()
	c.maxBatch.Max(int64(n))
	c.hist.Observe(uint64(n))
}

// Stats is a point-in-time copy of the engine's serving counters,
// surfaced through the server's STATS command.
type Stats struct {
	// Enqueued and Applied count ops accepted and ops completed
	// (including barriers); Pending is their difference — ops queued
	// or mid-batch.
	Enqueued, Applied, Pending uint64
	// QueueDepth is the instantaneous bounded-queue occupancy.
	QueueDepth int
	// Trains and Adds count applied write ops by kind.
	Trains, Adds uint64
	// Batches is the number of group-applied batches; MaxBatch the
	// largest one drained.
	Batches, MaxBatch uint64
	// Errors counts failed asynchronous ops.
	Errors uint64
	// BatchHist is a power-of-two histogram of drained batch sizes:
	// bucket i counts batches of size [2^i, 2^(i+1)), the last bucket
	// everything ≥ 128.
	BatchHist [histBuckets]uint64
	// SnapshotVersion counts the versions the engine has published.
	SnapshotVersion uint64
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	s := Stats{
		Enqueued:        e.stats.enqueued.Load(),
		Applied:         e.stats.applied.Load(),
		QueueDepth:      len(e.ops),
		Trains:          e.stats.trains.Load(),
		Adds:            e.stats.adds.Load(),
		Batches:         e.stats.batches.Load(),
		MaxBatch:        uint64(e.stats.maxBatch.Load()),
		Errors:          e.stats.errors.Load(),
		SnapshotVersion: e.published.Load(),
	}
	if s.Enqueued > s.Applied {
		s.Pending = s.Enqueued - s.Applied
	}
	for i := range s.BatchHist {
		s.BatchHist[i] = e.stats.hist.Bucket(i)
	}
	return s
}

// String renders the counters as the key=value tail of a STATS line.
//
// The key order is a stable, documented contract (clients parse it):
//
//	queued pending applied trains adds batches maxbatch errors snapver hist
//
// with hist a '/'-joined list of the histBuckets power-of-two batch
// size buckets. Keys are only ever appended, never reordered or
// removed; the exact bytes are pinned by TestStatsLineStableOrder in
// internal/server.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "queued=%d pending=%d applied=%d trains=%d adds=%d batches=%d maxbatch=%d errors=%d snapver=%d hist=",
		s.QueueDepth, s.Pending, s.Applied, s.Trains, s.Adds, s.Batches, s.MaxBatch, s.Errors, s.SnapshotVersion)
	for i, n := range s.BatchHist {
		if i > 0 {
			b.WriteByte('/')
		}
		fmt.Fprintf(&b, "%d", n)
	}
	return b.String()
}
