package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"
)

// config is one invocation. Only seed, seconds and trace are flags;
// the rest are fixed in main and shrunk by the smoke test.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	scale   float64 // multiplies every workload's entity count
	setups  int     // set-ups and reopens per run; their medians are reported
	dir     string  // scratch root; each run works in a fresh subdirectory
	corrupt bool    // smoke-test hook: expect one entity more than there can be
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything one run found out. gated are the metrics
// BENCHMARK.json names for this mode (end_to_end untraced, per_layer
// traced); extra are printed beside them and never gated.
type report struct {
	workload string
	result
	extra  []namedMetric
	record map[string]any
	notes  []string
}

type namedMetric struct {
	name string
	metric
	note string
}

func (r *report) gate(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }
func (r *report) also(name string, v float64, unit, note string) {
	r.extra = append(r.extra, namedMetric{name, metric{v, unit}, note})
}

func (r *report) fail(n int, why string) {
	if n == 0 {
		return
	}
	r.Failed += n
	if why != "" {
		r.notes = append(r.notes, "FAILED: "+why)
	}
}

// run executes one workload end to end: set-up and reopen (several
// times, for their medians), the measured phases, the traced run when
// asked for, and the correctness checks before and after a restart.
func run(cfg config, w0 *workload) (*report, error) {
	w := *w0
	w.entities = max(int(float64(w.entities)*cfg.scale), 400)
	wallStart := time.Now()
	dir, err := os.MkdirTemp(cfg.dir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	rep := &report{workload: w.name, result: result{Metrics: map[string]metric{}}}
	c := newCorpus(cfg.seed)
	wr := newWriter(c, cfg.seed, w.entities, w.warm(), w.addEvery, w.async)

	// Every set-up writes the same database; the last one is served.
	var setupS, reopenS []float64
	var userBytes int64
	db := filepath.Join(dir, "db")
	for i := 0; i < cfg.setups; i++ {
		if err := os.RemoveAll(db); err != nil {
			return nil, err
		}
		s, err := timed(func() (err error) { userBytes, err = setup(db, &w, c, wr); return err })
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, s)
	}
	loadedBytes, err := dirBytes(db)
	if err != nil {
		return nil, err
	}
	var st *stack
	defer func() {
		if st != nil {
			st.close()
		}
	}()
	reopen := func() error {
		if st != nil {
			err := st.close()
			if st = nil; err != nil {
				return fmt.Errorf("close: %w", err)
			}
		}
		s, err := timed(func() (err error) { st, err = open(db, &w); return err })
		reopenS = append(reopenS, s)
		return err
	}
	for i := 0; i < cfg.setups; i++ {
		if err := reopen(); err != nil {
			return nil, fmt.Errorf("reopen: %w", err)
		}
	}

	// The memory metric is the serving footprint, so what set-up left
	// behind goes back to the OS first.
	debug.FreeOSMemory()
	rss := startRSS()
	before := snapRegistry(st.db)
	var hot zipf
	if w.hotTheta > 0 {
		hot = newZipf(w.entities, w.hotTheta)
	}
	readers := func(n int) []func() stmt {
		out := make([]func() stmt, n)
		for i := range out {
			out[i] = newReader(cfg.seed, i, w.readMix, w.entities, hot).next
		}
		return out
	}
	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2 // the traced part takes the other half
	}
	reads, writes, err := measure(st, &w, seconds, readers, wr)
	if err != nil {
		return nil, err
	}
	peak := rss.stop()
	// Registry deltas span warm-up too, so layerCounts divides by every
	// op sent, not only the measured ones.
	layers := layerCounts(before, snapRegistry(st.db), reads.sent, writes.sent, w.entities)
	rep.Attempted += reads.sent + writes.sent
	rep.fail(reads.failed, reads.firstFailure)
	rep.fail(writes.failed, writes.firstFailure)

	var tr *tracer
	if cfg.trace {
		if tr, err = traced(cfg, &w, st, wr, rep, layers, readers); err != nil {
			return nil, err
		}
	} else {
		allReads, visible := reads.pooled(), writes.visible()
		rep.gate("setup_s", median(setupS), "s")
		rep.gate("reopen_s", median(reopenS), "s")
		rep.gate("read_ops_s", reads.opsPerS, "op/s")
		rep.gate("read_p50_us", allReads.quantile(0.5)/1e3, "us")
		rep.gate("write_ops_s", writes.opsPerS, "op/s")
		rep.gate("write_visible_p50_ms", visible.quantile(0.5)/1e6, "ms")
		rep.gate("peak_rss_mb", peak, "MiB")
		perClass(rep, reads)
		perClass(rep, writes)
		if label, v, ok := visible.tail(); ok {
			rep.also("write_visible_"+label+"_ms", v/1e6, "ms", fmt.Sprintf("n=%d", len(visible)))
		}
		stall := max(allReads.quantile(1), writes.pooled().quantile(1), visible.quantile(1))
		rep.also("stall_max_ms", stall/1e6, "ms", "worst single op")
	}

	// Correctness, on the quiesced database and again after a restart:
	// every acknowledged write must have survived it.
	want := w.entities + wr.added()
	if cfg.corrupt {
		want++
	}
	if err := verify(st, &w, c, cfg.seed, want, rep); err != nil {
		return nil, err
	}
	finalBytes, err := dirBytes(db)
	if err != nil {
		return nil, err
	}
	measuredReopens := reopenS
	if err := reopen(); err != nil {
		return nil, fmt.Errorf("reopen after the run: %w", err)
	}
	if err := verify(st, &w, c, cfg.seed, want, rep); err != nil {
		return nil, err
	}
	err = st.close()
	if st = nil; err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	rep.Correct = rep.Failed == 0

	if !cfg.trace {
		rep.also("failed_share", float64(rep.Failed)/float64(rep.Attempted), "ratio", "the result line carries failed and attempted")
		rep.also("disk_bytes_per_user_byte", float64(finalBytes)/float64(userBytes), "ratio", "db directory ÷ bytes of ids + titles loaded")
		rep.also("reopen_after_run_s", reopenS[len(reopenS)-1], "s", "with the run's WAL tail to replay")
	}
	rep.record = map[string]any{
		"workload": w.name, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"commit": commit(), "go": runtime.Version(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"fsync_setup": "off", "fsync_measured": "always", "wal_segment_bytes": walSegmentBytes,
		"entities": w.entities, "warm_examples": w.warm(), "arch": w.arch, "partitions": max(w.partitions, 1), "engine": w.engine,
		"pool_pages": poolPages, "pool_bytes": poolPages * pageBytes, "loaded_dir_bytes": loadedBytes, "final_dir_bytes": finalBytes, "user_bytes": userBytes,
		"setup_s_each": setupS, "reopen_s_each": measuredReopens,
		"read_ops_sent": reads.sent, "write_ops_sent": writes.sent, "read_ops_measured": reads.ops, "write_ops_measured": writes.ops,
		"entities_added": wr.added(), "wall_s": time.Since(wallStart).Seconds(),
	}
	if tr != nil {
		path := filepath.Join(cfg.dir, "trace."+w.name+".json")
		if err := tr.write(path); err != nil {
			return nil, err
		}
		rep.record["trace_file"] = path
		rep.record["spans"] = len(tr.spans)
	}
	return rep, nil
}

// The buffer pools the program sizes itself (hazy.OpenWith and
// ViewSpec.PoolPages both default to 512 pages of 8 KiB); stated in
// the run record beside the data sizes.
const (
	poolPages = 512
	pageBytes = 8192
)

// measure runs the workload's measured phases for seconds in all. Each
// phase is preceded by an unmeasured warm-up of a twentieth of it.
func measure(st *stack, w *workload, seconds float64, readers func(int) []func() stmt, wr *writer) (reads, writes *phaseResult, err error) {
	phase := func(share float64, streams ...func() stmt) (*phaseResult, error) {
		d := time.Duration(seconds * share * float64(time.Second))
		return runPhase(st, newWindow(max(d/20, 100*time.Millisecond), d), streams...)
	}
	if w.concurrent {
		both, err := phase(1, wr.next, readers(1)[0])
		if err != nil {
			return nil, nil, err
		}
		writes, reads = &phaseResult{conns: both.conns[:1]}, &phaseResult{conns: both.conns[1:]}
		writes.tally()
		reads.tally()
		return reads, writes, nil
	}
	if reads, err = phase(w.readShare, readers(2)...); err != nil {
		return nil, nil, err
	}
	writes, err = phase(1-w.readShare, wr.next)
	return reads, writes, err
}

// perClass reports each statement class's median, the highest
// percentile with ten samples beyond it, and the sample count.
func perClass(rep *report, p *phaseResult) {
	for _, class := range []string{opLabel, opPoint, opCount, opRange, opNearest, opTrain, opAdd} {
		l := p.pooled(class)
		if len(l) == 0 {
			continue
		}
		note := fmt.Sprintf("n=%d", len(l))
		if label, v, ok := l.tail(); ok {
			note += fmt.Sprintf(" %s=%.1fus", label, v/1e3)
		}
		rep.also(class+"_p50_us", l.quantile(0.5)/1e3, "us", note)
	}
}

// rssSampler polls VmRSS: the peak it sees is the serving footprint,
// which VmHWM cannot give once set-up has run in the same process.
type rssSampler struct {
	quit chan struct{}
	wg   sync.WaitGroup
	peak float64
}

func startRSS() *rssSampler {
	s := &rssSampler{quit: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			s.peak = max(s.peak, rssMiB())
			select {
			case <-s.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *rssSampler) stop() float64 {
	close(s.quit)
	s.wg.Wait()
	return s.peak
}

// rssMiB reads VmRSS from /proc/self/status; 0 where there is none.
func rssMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
