// Package bench regenerates every table and figure of the paper's
// evaluation (§4 and App. C) over the synthetic data sets. Each
// experiment prints a text table shaped like the paper's and, where
// meaningful, the paper's reference numbers so shape comparisons
// (who wins, by what factor) are immediate.
package bench

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"strings"
	"time"

	"hazy/internal/core"
	"hazy/internal/dataset"
	"hazy/internal/learn"
)

// Config parameterizes a harness run.
type Config struct {
	// Scale multiplies every data set's entity count (1.0 = the
	// packaged laptop-scale defaults).
	Scale float64
	// Warm is the number of warm-model training examples (paper: 12k).
	Warm int
	// Updates is the number of measured updates (paper: 3k).
	Updates int
	// Reads is the number of measured Single Entity reads (paper: 15k).
	Reads int
	// Dir hosts the on-disk views' page files.
	Dir string
	// PoolPages sizes on-disk buffer pools.
	PoolPages int
}

// WithDefaults fills unset fields with the harness defaults.
func (c Config) WithDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Warm == 0 {
		c.Warm = 2000
	}
	if c.Updates == 0 {
		c.Updates = 300
	}
	if c.Reads == 0 {
		c.Reads = 15000
	}
	if c.PoolPages == 0 {
		c.PoolPages = 2048 // 16 MiB per on-disk view
	}
	return c
}

// Experiment is one regenerable paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config, w io.Writer) error
}

// All lists every experiment in paper order.
var All = []Experiment{
	{"fig3", "Figure 3: data set statistics", RunFig3},
	{"fig4a", "Figure 4(A): eager Update throughput", RunFig4A},
	{"fig4b", "Figure 4(B): lazy All Members throughput", RunFig4B},
	{"fig5", "Figure 5: Single Entity read throughput", RunFig5},
	{"fig6a", "Figure 6(A): hybrid memory usage", RunFig6A},
	{"fig6b", "Figure 6(B): Single Entity reads vs buffer size", RunFig6B},
	{"fig10", "Figure 10: batch SVM vs incremental SGD vs Hazy", RunFig10},
	{"fig11a", "Figure 11(A): scalability in data size", RunFig11A},
	{"fig11b", "Figure 11(B): scale-up in reader threads", RunFig11B},
	{"fig12a", "Figure 12(A): feature-length sensitivity", RunFig12A},
	{"fig12b", "Figure 12(B): multiclass update throughput", RunFig12B},
	{"fig13", "Figure 13: tuples between low and high water", RunFig13},
	{"skiing", "Lemma 3.2/Thm 3.3: Skiing competitive ratio", RunSkiing},
	{"alpha", "App. C.2: α-sensitivity of Skiing", RunAlpha},
	{"ablation", "Ablation: Skiing vs never/always reorganizing", RunAblation},
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range All {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// datasets returns the three §4 performance data sets at scale.
func datasets(cfg Config) []*dataset.Data {
	return []*dataset.Data{
		dataset.Generate(dataset.Forest.Scale(cfg.Scale)),
		dataset.Generate(dataset.DBLife.Scale(cfg.Scale)),
		dataset.Generate(dataset.Citeseer.Scale(cfg.Scale)),
	}
}

// normFor returns the watermark norm used for a data set: p=2 for
// dense ℓ2-normalized data, p=∞ for ℓ1-normalized text (§3.2.2).
func normFor(d *dataset.Data) float64 {
	if d.Spec.Dense {
		return 2
	}
	return math.Inf(1)
}

// benchSGD is the trainer configuration used across the harness: λ
// large enough that the Bottou step size has decayed by the end of
// the warm phase, giving the converged "warm model" regime of §4.1
// (where per-update model drift, and hence the water band, is small).
var benchSGD = learn.SGDConfig{Eta0: 0.5, Lambda: 1e-2}

// driftSGD is the barely-converged regime (slow step decay): the
// model keeps moving with every update, so the water band grows and
// the reorganize-or-not decision actually matters. Experiments about
// band dynamics (fig6b, fig13, alpha, ablation) use it.
var driftSGD = learn.SGDConfig{Eta0: 0.5, Lambda: 1e-4}

// buildView constructs a view over a data set with a warm model.
func buildView(cfg Config, d *dataset.Data, arch core.Arch, strat core.Strategy, mode core.Mode, name string) (core.View, error) {
	opts := core.Options{
		Mode: mode,
		Norm: normFor(d),
		SGD:  benchSGD,
		Warm: d.Stream(cfg.Warm),
	}
	dir := filepath.Join(cfg.Dir, name)
	return core.New(arch, strat, dir, cfg.PoolPages, d.Entities, opts)
}

// technique is one row of the §4.1 grids.
type technique struct {
	Label string
	Arch  core.Arch
	Strat core.Strategy
}

// fig4Techniques is the row order of Figure 4.
var fig4Techniques = []technique{
	{"OD Naive", core.OnDisk, core.Naive},
	{"OD Hazy", core.OnDisk, core.HazyStrategy},
	{"OD Hybrid", core.HybridArch, core.HazyStrategy},
	{"MM Naive", core.MainMemory, core.Naive},
	{"MM Hazy", core.MainMemory, core.HazyStrategy},
}

// rate renders "n ops in d" as ops/second.
func rate(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// table is a tiny fixed-width text-table builder.
type table struct {
	header []string
	rows   [][]string
}

func newTable(cols ...string) *table { return &table{header: cols} }

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) addf(label string, vals ...float64) {
	cells := []string{label}
	for _, v := range vals {
		cells = append(cells, fmtRate(v))
	}
	t.add(cells...)
}

// fmtRate renders a rate compactly (2.8k style above 1000).
func fmtRate(v float64) string {
	switch {
	case v >= 10000:
		return fmt.Sprintf("%.1fk", v/1000)
	case v >= 1000:
		return fmt.Sprintf("%.2fk", v/1000)
	case v >= 10:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

func (t *table) write(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			width := len(c)
			if i < len(widths) && widths[i] > width {
				width = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", width, c)
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}
