package core

import (
	"time"

	"hazy/internal/obs"
)

// viewMetrics holds one view's (or one stripe's) maintenance
// collectors. Every Hazy-strategy view owns one; when no registry is
// wired through Options.Metrics the collectors are unregistered but
// still live, so instrumented code never branches. The costs observed
// here are per-batch maintenance costs (a reorganization, a band
// sweep) — nothing on the per-row read path touches these.
type viewMetrics struct {
	reorgs    *obs.Counter
	reorgDur  *obs.Histogram
	sweepRows *obs.Histogram
	sweepDur  *obs.Histogram
	wmResets  *obs.Counter
}

// newViewMetrics registers the maintenance collectors under labels
// (view=..., optionally stripe=...). Re-registering — e.g. when a
// view is rebuilt — replaces the previous instance's collectors.
func newViewMetrics(reg *obs.Registry, labels ...obs.Label) *viewMetrics {
	return &viewMetrics{
		reorgs:    reg.Counter("hazy_view_reorgs_total", "reorganizations: re-cluster on eps and reset watermarks", labels...),
		reorgDur:  reg.Histogram("hazy_view_reorg_micros", "reorganization duration in microseconds", 32, labels...),
		sweepRows: reg.Histogram("hazy_view_band_sweep_rows", "tuples reclassified per incremental band sweep", 32, labels...),
		sweepDur:  reg.Histogram("hazy_view_band_sweep_micros", "incremental band sweep duration in microseconds", 32, labels...),
		wmResets:  reg.Counter("hazy_view_watermark_resets_total", "watermark resets to the current model", labels...),
	}
}

// observeReorg records one completed reorganization.
func (m *viewMetrics) observeReorg(d time.Duration) {
	m.reorgs.Inc()
	m.reorgDur.ObserveDuration(d)
}

// observeWMReset records one watermark reset.
func (m *viewMetrics) observeWMReset() { m.wmResets.Inc() }

// observeSweep records the size and duration of one incremental band
// sweep.
func (m *viewMetrics) observeSweep(rows int, d time.Duration) {
	m.sweepRows.Observe(uint64(rows))
	m.sweepDur.ObserveDuration(d)
}
