// Many-views benchmark: the PR-9 tentpole claim is that one shared
// maintenance pool serves hundreds of engined views with O(pool size)
// goroutines and no cold-view starvation. benchManyViews opens a
// catalog with hundreds of engined views, floods one hot view with
// ADD/TRAIN traffic while every other (cold) view sees occasional
// writes and snapshot reads, and measures (a) the goroutine overhead
// of all those engines, (b) mixed-traffic throughput, and (c) the
// p50/p99 latency of cold-view Flush barriers under the hot flood —
// the round-robin fairness bound. TestManyViewsEmitJSON records the
// measurement to the file named by BENCH_JSON_OUT (CI writes
// BENCH_pr9.json) so the trajectory is machine-readable and diffed
// against the committed baseline.
package hazy_test

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	root "hazy"
	"hazy/internal/engine"
)

const (
	manyViewsCount    = 500 // engined views in the catalog
	manyViewsHotOps   = 4000
	manyViewsColdOps  = 4   // async writes per cold view
	manyViewsSampled  = 100 // cold views whose Flush latency is sampled
	manyViewsFlushes  = 2   // timed flushes per sampled cold view
	manyViewsPoolSize = 4
)

type manyViewsResult struct {
	views            int
	extraGoroutines  int           // after attaching all engines, vs before
	peakGoroutines   int           // during the mixed-traffic phase
	totalOps         int           // writes applied across all views
	elapsed          time.Duration // mixed-traffic wall clock
	coldP50, coldP99 time.Duration
}

// benchManyViews runs the full scenario once.
func benchManyViews(tb testing.TB, views int) manyViewsResult {
	dir := tb.TempDir()
	db, err := root.OpenWith(dir, root.OpenOptions{Fsync: "off", MaintWorkers: manyViewsPoolSize})
	if err != nil {
		tb.Fatal(err)
	}
	defer func() {
		if err := db.Close(); err != nil {
			tb.Fatal(err)
		}
	}()
	names := churnStack(tb, db, views)

	before := runtime.NumGoroutine()
	engines := make([]*engine.Engine, views)
	for i, name := range names {
		eng, err := db.AttachEngine(name, root.EngineOptions{QueueSize: 256, MaxBatch: 64})
		if err != nil {
			tb.Fatal(err)
		}
		engines[i] = eng
	}
	res := manyViewsResult{views: views}
	res.extraGoroutines = runtime.NumGoroutine() - before

	// Mixed traffic: one hot flood, light writes + reads everywhere
	// else, and timed Flush barriers on a sample of cold views.
	var nextID atomic.Int64
	nextID.Store(10_000)
	var totalOps atomic.Int64
	start := time.Now()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // hot flood on view 0
		defer wg.Done()
		hot := engines[0]
		for i := 0; i < manyViewsHotOps; i++ {
			id := nextID.Add(1)
			if err := hot.AddAsync(id, "hot view flood entity"); err != nil {
				tb.Error(err)
				return
			}
			if err := hot.TrainAsync(id, 1-2*(i%2)); err != nil {
				tb.Error(err)
				return
			}
			totalOps.Add(2)
		}
	}()

	latencies := make([]time.Duration, 0, manyViewsSampled*manyViewsFlushes)
	sampleEvery := (views - 1) / manyViewsSampled
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	wg.Add(1)
	go func() { // cold traffic across every other view
		defer wg.Done()
		for vi := 1; vi < views; vi++ {
			eng := engines[vi]
			for j := 0; j < manyViewsColdOps; j++ {
				id := nextID.Add(1)
				if err := eng.AddAsync(id, "cold view entity"); err != nil {
					tb.Error(err)
					return
				}
				if err := eng.TrainAsync(id, 1-2*(j%2)); err != nil {
					tb.Error(err)
					return
				}
				totalOps.Add(2)
				eng.Snapshot().CountMembers() // lock-free snapshot read
			}
			if vi%sampleEvery == 0 {
				for f := 0; f < manyViewsFlushes; f++ {
					begin := time.Now()
					if err := eng.Flush(); err != nil {
						tb.Error(err)
						return
					}
					latencies = append(latencies, time.Since(begin))
				}
			}
		}
	}()

	// Goroutine peak while both traffic generators run.
	peakStop := make(chan struct{})
	peakDone := make(chan struct{})
	peak := before
	go func() {
		defer close(peakDone)
		for {
			select {
			case <-time.After(5 * time.Millisecond):
				if n := runtime.NumGoroutine(); n > peak {
					peak = n
				}
			case <-peakStop:
				return
			}
		}
	}()
	wg.Wait()
	close(peakStop)
	<-peakDone
	res.peakGoroutines = peak

	// Drain everything so totalOps reflects applied work.
	for _, eng := range engines {
		if err := eng.Drain(); err != nil {
			tb.Fatal(err)
		}
	}
	res.elapsed = time.Since(start)
	res.totalOps = int(totalOps.Load())

	sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
	if len(latencies) > 0 {
		res.coldP50 = latencies[len(latencies)/2]
		res.coldP99 = latencies[len(latencies)*99/100]
	}
	return res
}

// checkManyViews asserts the structural claims that must hold on any
// machine: goroutines O(pool size), not O(views), and cold flushes
// that complete (bounded) under the hot flood.
func checkManyViews(tb testing.TB, res manyViewsResult) {
	// Attached-but-idle engines own no goroutines; during traffic the
	// process adds pool workers + the two generators + test plumbing,
	// never one goroutine per view.
	if res.extraGoroutines > manyViewsPoolSize+8 {
		tb.Fatalf("attaching %d engines grew goroutines by %d — engines must be parked task sources", res.views, res.extraGoroutines)
	}
	if res.peakGoroutines > res.views/2 {
		tb.Fatalf("peak goroutines %d with %d views — maintenance is not O(pool size)", res.peakGoroutines, res.views)
	}
	if res.coldP99 <= 0 {
		tb.Fatal("no cold-view flush latencies sampled")
	}
	if res.coldP99 > 30*time.Second {
		tb.Fatalf("cold-view flush p99 = %v under hot flood — starved", res.coldP99)
	}
}

func BenchmarkManyViews(b *testing.B) {
	views := manyViewsCount
	if testing.Short() {
		views = 100
	}
	for i := 0; i < b.N; i++ {
		res := benchManyViews(b, views)
		checkManyViews(b, res)
		b.ReportMetric(float64(res.elapsed.Nanoseconds())/float64(res.totalOps), "ns/write")
		b.ReportMetric(float64(res.coldP99.Microseconds()), "coldflush-p99-us")
		b.ReportMetric(float64(res.peakGoroutines), "peak-goroutines")
	}
}

// TestManyViewsEmitJSON runs the 500-view scenario once and writes
// the measurement to BENCH_JSON_OUT (CI: BENCH_pr9.json). Guarded
// keys: per-write latency and the cold-view flush percentiles — the
// no-starvation bound the scheduler must keep.
func TestManyViewsEmitJSON(t *testing.T) {
	out := os.Getenv("BENCH_JSON_OUT")
	if out == "" {
		t.Skip("set BENCH_JSON_OUT=<path> to emit the many-views benchmark JSON")
	}
	res := benchManyViews(t, manyViewsCount)
	checkManyViews(t, res)
	report := map[string]any{
		"bench":               "ManyViews",
		"views":               res.views,
		"cores":               runtime.GOMAXPROCS(0),
		"pool_workers":        manyViewsPoolSize,
		"extra_goroutines":    res.extraGoroutines,
		"peak_goroutines":     res.peakGoroutines,
		"total_write_ops":     res.totalOps,
		"mixedwrite_ns_op":    res.elapsed.Nanoseconds() / int64(res.totalOps),
		"coldflush_p50_ns_op": res.coldP50.Nanoseconds(),
		"coldflush_p99_ns_op": res.coldP99.Nanoseconds(),
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: %s", out, data)
}
