package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	root "hazy"
	"hazy/internal/core"
	"hazy/internal/server"
	"hazy/internal/sqlmini"
)

// The per-layer numbers are measured from outside the program, as the
// change that defines a benchmark should: counts are deltas of
// collectors the program already keeps (db.Metrics()), times are spans
// this file records around calls into public functions at successive
// depths. Spans inside the program are ROADMAP item 5.

// regSnap is a registry snapshot with label sets summed per name.
type regSnap map[string]regVal

type regVal struct{ value, sum float64 }

func snapRegistry(db *root.DB) regSnap {
	out := regSnap{}
	for _, s := range db.Metrics().Snapshot() {
		v := out[s.Name]
		v.value += float64(s.Value)
		v.sum += float64(s.Sum)
		out[s.Name] = v
	}
	return out
}

// regDelta is what a set of collectors did between two snapshots.
type regDelta struct{ before, after regSnap }

func (d regDelta) count(name string) float64 { return d.after[name].value - d.before[name].value }
func (d regDelta) sum(name string) float64   { return d.after[name].sum - d.before[name].sum }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetric is one row of the per-layer table.
type layerMetric struct {
	name  string
	value float64
	unit  string
	gated bool // named in BENCHMARK.json: defined on every workload
}

type layerTable []layerMetric

func (t *layerTable) add(name string, v float64, unit string) {
	*t = append(*t, layerMetric{name, v, unit, true})
}

// only adds a row that exists on some workloads only (no engine on
// disk.od200k, no snapshot on an on-disk view), so it is printed and
// not part of the contract every workload must emit.
func (t *layerTable) only(name string, v float64, unit string) {
	*t = append(*t, layerMetric{name, v, unit, false})
}

// layerCounts turns the registry delta over the measured phases into
// per-layer counts and ratios. reads and writes are ops sent, warm-up
// included, because the collectors saw those too.
func layerCounts(before, after regSnap, reads, writes, entities int) layerTable {
	d := regDelta{before, after}
	r, w := float64(reads), float64(writes)
	var t layerTable
	batches := d.count("hazy_engine_batches_total")
	t.add("engine.batch_mean", ratio(d.count("hazy_engine_trains_total")+d.count("hazy_engine_adds_total"), batches), "count")
	t.add("engine.publishes", d.count("hazy_engine_snapshot_version"), "count")
	t.add("sched.quanta", d.count("hazy_sched_quanta_total"), "count")
	t.add("sched.steals", d.count("hazy_sched_steals_total"), "count")
	if q := d.count("hazy_sched_delay_us"); q > 0 {
		t.only("sched.delay_us", d.sum("hazy_sched_delay_us")/q, "us")
	}
	t.add("core.reorgs", d.count("hazy_view_reorgs_total"), "count")
	if n := d.count("hazy_view_reorg_micros"); n > 0 {
		t.only("core.reorg_ms", d.sum("hazy_view_reorg_micros")/n/1e3, "ms")
	}
	// The paper's Fig 13 quantity: the share of the view an update's
	// incremental step re-examines.
	t.add("core.band_share", ratio(d.sum("hazy_view_band_sweep_rows"), w*float64(entities)), "ratio")
	fsyncs := d.count("hazy_wal_fsync_micros")
	t.add("wal.fsync_us", ratio(d.sum("hazy_wal_fsync_micros"), fsyncs), "us")
	t.add("wal.fsyncs_per_write", ratio(fsyncs, w), "count")
	t.add("wal.bytes_per_write", ratio(d.count("hazy_wal_appended_bytes_total"), w), "B")
	t.add("wal.rotations", d.count("hazy_wal_rotations_total"), "count")
	hits, misses := d.count("hazy_pool_hits_total"), d.count("hazy_pool_misses_total")
	t.add("storage.pool_hit_ratio", ratio(hits, hits+misses), "ratio")
	t.add("storage.misses_per_read", ratio(misses, r), "count")
	t.add("storage.evictions", d.count("hazy_pool_evictions_total"), "count")
	return t
}

// span is one timed call. The spans of one sampled op share Op; Parent
// names the depth that encloses this one when a client makes the call
// for real. The depths of an op are separate executions, one after
// another, so Start and End do not nest in time — see the README.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) do(name, parent string, op int, f func() error) (float64, error) {
	start := time.Now()
	err := f()
	end := time.Now()
	t.spans = append(t.spans, span{name, op, parent, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()})
	return float64(end.Sub(start).Nanoseconds()), err
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Depth names, outermost first.
const (
	spanClient  = "client.do"       // TCP round trip
	spanServer  = "server.exec"     // the same line, in-process
	spanSession = "session.exec"    // the SQL text below the protocol line
	spanExplain = "session.explain" // parse + plan, no execution
	spanParse   = "sqlmini.parse"
	spanView    = "view.read"  // LABEL's BoundView call: the core read
	spanWrite   = "hazy.write" // InsertExample / InsertText: engine queue → apply → fsync → publish, or trigger maintenance when unmanaged
)

// serverErr turns an in-process "ERR ..." reply into an error, as
// Client.Do does for the wire.
func serverErr(reply string) error {
	if strings.HasPrefix(reply, "ERR ") {
		return fmt.Errorf("server: %s", reply[4:])
	}
	return nil
}

// peeler holds what every depth of the traced run calls into.
type peeler struct {
	tr     *tracer
	st     *stack
	cl     *server.Client
	sess   *root.Session
	rep    *report
	ops    int // spans' op ids, and the ops attempted
	failed int
}

func (p *peeler) note(err error) {
	if err == nil {
		return
	}
	if p.failed++; p.failed == 1 {
		p.rep.notes = append(p.rep.notes, "FAILED in traced run: "+err.Error())
	}
}

// do records one span of the current op and counts a failure.
func (p *peeler) do(name, parent string, f func() error) float64 {
	d, err := p.tr.do(name, parent, p.ops, f)
	p.note(err)
	return d
}

// traced is the traced run: on the quiesced database, one client, it
// measures connection scaling, then peels sampled reads and writes
// through the depths and fills rep with every per-layer metric. It
// takes half of --seconds (a tenth per scaling phase, a tenth for the
// read peel, a fifth for the write peel); the measured phases before
// it took the other half.
func traced(cfg config, w *workload, st *stack, wr *writer, rep *report, layers layerTable, readers func(int) []func() stmt) (*tracer, error) {
	budget := time.Duration(cfg.seconds * float64(time.Second))
	if w.engine {
		if reply, _ := st.srv.Exec("FLUSH"); reply != "OK" {
			return nil, fmt.Errorf("FLUSH before the traced run: %s", reply)
		}
	}

	// hazy.conn_scaling: reads at two connections over reads at one.
	var scaling [2]*phaseResult
	for i := range scaling {
		var err error
		if scaling[i], err = runPhase(st, newWindow(budget/100, budget/10), readers(i+1)...); err != nil {
			return nil, err
		}
		rep.Attempted += scaling[i].sent
		rep.fail(scaling[i].failed, scaling[i].firstFailure)
	}
	t := layerTable{}
	t.add("hazy.conn_scaling", ratio(scaling[1].opsPerS, scaling[0].opsPerS), "ratio")

	cl, err := st.dial()
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	p := &peeler{tr: &tracer{t0: time.Now()}, st: st, cl: cl, sess: st.db.NewSession(), rep: rep}
	p.sess.SetDefaultView(viewName)
	p.peelReads(&t, newReader(cfg.seed, 99, w.readMix, w.entities, nil).next, time.Now().Add(budget/10))
	if err := p.peelWrites(&t, w, wr, time.Now().Add(budget/5)); err != nil {
		return nil, err
	}
	rep.Attempted += p.ops
	rep.fail(p.failed, "")

	for _, m := range append(layers, t...) {
		if m.gated {
			rep.gate(m.name, m.value, m.unit)
		} else {
			rep.also(m.name, m.value, m.unit, "this workload only")
		}
	}
	sort.SliceStable(rep.extra, func(i, j int) bool { return rep.extra[i].name < rep.extra[j].name })
	return p.tr, nil
}

// peelReads: reads are idempotent, so the same statement runs once to
// warm whatever it touches, once untraced, then once at every depth. A
// layer's self time is the median over ops of one depth minus the next
// one down; the depths telescope to the root span, so every
// microsecond of a read has a layer by construction.
func (p *peeler) peelReads(t *layerTable, next func() stmt, deadline time.Time) {
	self := map[string][]float64{}
	var untraced, roots []float64
	resultRows := 0
	before := snapRegistry(p.st.db)
	for n := 0; n < 4000 && (n < 50 || time.Now().Before(deadline)); n++ {
		s := next()
		_, err := p.cl.Do(s.line)
		p.note(err)
		t0 := time.Now()
		_, err = p.cl.Do(s.line)
		untraced = append(untraced, float64(time.Since(t0).Nanoseconds()))
		p.note(err)

		d0 := p.do(spanClient, "", func() error { _, err := p.cl.Do(s.line); return err })
		d1 := p.do(spanServer, spanClient, func() error { reply, _ := p.st.srv.Exec(s.line); return serverErr(reply) })
		roots = append(roots, d0)
		self["server.wire_us"] = append(self["server.wire_us"], d0-d1)
		if sql, isSQL := strings.CutPrefix(s.line, "SQL "); isSQL {
			d2 := p.do(spanSession, spanServer, func() error {
				res, err := p.sess.Exec(sql)
				if err == nil {
					resultRows += len(res.Rows)
				}
				return err
			})
			d3 := p.do(spanExplain, spanSession, func() error { _, err := p.sess.Exec("EXPLAIN " + sql); return err })
			d4 := p.do(spanParse, spanExplain, func() error { _, err := sqlmini.Parse(sql); return err })
			// Not a depth: feeds hazy_exec_rows_total, which only analyzed
			// statements count into.
			_, err = p.sess.Exec("EXPLAIN ANALYZE " + sql)
			p.note(err)
			self["server.dispatch_us"] = append(self["server.dispatch_us"], d1-d2)
			self["exec.run_us"] = append(self["exec.run_us"], d2-d3)
			self["exec.plan_us"] = append(self["exec.plan_us"], d3-d4)
			self["sqlmini.parse_us"] = append(self["sqlmini.parse_us"], d4)
		} else { // LABEL id, the only verb in the mixes
			d2 := p.do(spanView, spanServer, func() error {
				bv, err := p.sess.Bind("")
				if err == nil {
					_, err = bv.Label(s.id)
				}
				return err
			})
			self["server.dispatch_us"] = append(self["server.dispatch_us"], d1-d2)
			self["core.read_us"] = append(self["core.read_us"], d2)
		}
		p.ops++
	}
	regs := regDelta{before, snapRegistry(p.st.db)}
	for _, name := range []string{"server.wire_us", "server.dispatch_us", "sqlmini.parse_us", "exec.plan_us", "exec.run_us", "core.read_us"} {
		t.add(name, median(self[name])/1e3, "us")
	}
	t.add("exec.rows_per_result", ratio(regs.count("hazy_exec_rows_total"), float64(resultRows)), "count")
	t.add("trace_overhead", ratio(median(roots), median(untraced)), "ratio")
	t.only("read.root_us", median(roots)/1e3, "us")
	t.only("read.untraced_us", median(untraced)/1e3, "us")
}

// peelWrites: writes cannot be repeated, so successive examples (fresh
// ids, the synchronous SQL form) are dealt round-robin to the depths.
// A write costs milliseconds and drifts with the band, so a layer's
// self time is the median of differences inside a group of four
// neighbours, not a difference of medians; it still resolves only what
// is large beside that drift.
func (p *peeler) peelWrites(t *layerTable, w *workload, wr *writer, deadline time.Time) error {
	view, err := p.st.db.View(viewName)
	if err != nil {
		return err
	}
	wr.async, wr.addEvery = false, math.MaxInt
	depths := [4]string{spanClient, spanServer, spanSession, spanWrite}
	var groups [][4]float64
	before := snapRegistry(p.st.db)
	for len(groups) < 100 && (len(groups) < 5 || time.Now().Before(deadline)) {
		var g [4]float64
		for k, depth := range depths {
			s := wr.next()
			parent := ""
			if k > 0 {
				parent = depths[k-1]
			}
			g[k] = p.do(depth, parent, func() error {
				switch depth {
				case spanClient:
					_, err := p.cl.Do(s.line)
					return err
				case spanServer:
					reply, _ := p.st.srv.Exec(s.line)
					return serverErr(reply)
				case spanSession:
					_, err := p.sess.Exec(strings.TrimPrefix(s.line, "SQL "))
					return err
				}
				if s.class == opAdd { // only once every loaded entity is trained
					return view.Entities().InsertText(s.id, s.text)
				}
				return view.Examples().InsertExample(s.id, s.label)
			})
			p.ops++
		}
		groups = append(groups, g)
	}
	regs := regDelta{before, snapRegistry(p.st.db)}

	// col is the median over groups of depth i, or of depth i minus
	// depth j when j >= 0.
	col := func(i, j int) float64 {
		v := make([]float64, len(groups))
		for n, g := range groups {
			v[n] = g[i]
			if j >= 0 {
				v[n] -= g[j]
			}
		}
		return median(v)
	}
	writes := float64(4 * len(groups))
	fsyncUS := ratio(regs.sum("hazy_wal_fsync_micros"), writes)
	schedUS := ratio(regs.sum("hazy_sched_delay_us"), writes)
	reorgUS := ratio(regs.sum("hazy_view_reorg_micros"), writes)
	t.add("hazy.write_ms", col(3, -1)/1e6, "ms")

	// core.publish_ms: what one snapshot publish costs at this n, on the
	// quiesced view. On-disk views have no snapshot (and no engine).
	publishNS := 0.0
	if snap, ok := view.Core().(core.Snapshotter); ok {
		var ds []float64
		for i := 0; i < 5; i++ {
			ds = append(ds, p.do("core.snapshot", spanWrite, func() error { _, err := snap.Snapshot(); return err }))
			p.ops++
		}
		publishNS = median(ds)
		t.only("core.publish_ms", publishNS/1e6, "ms")
	}

	// feature.featurize_us: every write featurizes one title.
	bv, err := p.sess.Bind("")
	if err != nil {
		return err
	}
	var fs []float64
	for i := 0; i < 2000; i++ {
		title := wr.c.title(int64(i%w.entities) + 1)
		fs = append(fs, p.do("feature.classify", spanWrite, func() error { _, err := bv.Classify(title); return err }))
		p.ops++
	}
	featurizeNS := median(fs)
	t.add("feature.featurize_us", featurizeNS/1e3, "us")

	// attributed_share, for a synchronous write: the outer layers' self
	// times plus what the registry and the two probes above can name
	// inside hazy.write, over the traced end-to-end median. The rest —
	// queue hand-off, the SGD step, the band sweep, the table insert —
	// has no collector yet; closing that is ROADMAP item 5.
	attributed := col(0, 3) + (fsyncUS+schedUS+reorgUS)*1e3 + publishNS + featurizeNS
	t.add("attributed_share", ratio(attributed, col(0, -1)), "ratio")
	t.only("write.wire_us", col(0, 1)/1e3, "us")
	t.only("write.dispatch_us", col(1, 2)/1e3, "us")
	t.only("write.session_us", col(2, 3)/1e3, "us")
	t.only("write.fsync_us", fsyncUS, "us")
	t.only("write.sched_delay_us", schedUS, "us")
	t.only("write.reorg_us", reorgUS, "us")
	t.only("write.root_ms", col(0, -1)/1e6, "ms")
	return nil
}
