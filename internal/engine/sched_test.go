package engine

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hazy/internal/sched"
)

// TestDrainTerminatesUnderSustainedEnqueue is the regression test for
// the unbounded-Drain livelock: producers hammer the queue for the
// whole duration of the call, so the old "flush until empty" loop
// would chase them forever. Bounded Drain must return, and must still
// cover everything enqueued before it was called.
func TestDrainTerminatesUnderSustainedEnqueue(t *testing.T) {
	e := start(t, newMemBackend(t), Options{QueueSize: 8, MaxBatch: 4})

	// The prefix Drain must guarantee.
	for i := 0; i < 20; i++ {
		if err := e.TrainAsync(1, 1); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Sustained enqueue; errors after close are fine.
				_ = e.TrainAsync(1, 1)
			}
		}()
	}

	done := make(chan error, 1)
	go func() { done <- e.Drain() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Drain: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Drain livelocked under sustained concurrent enqueue")
	}
	close(stop)
	wg.Wait()

	// The pre-Drain prefix is applied and visible.
	if st := e.Stats(); st.Trains < 20 {
		t.Fatalf("Trains = %d, want >= 20 (pre-Drain prefix applied)", st.Trains)
	}
	// With producers stopped, a final Drain empties the queue.
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Pending != 0 {
		t.Fatalf("Pending = %d after quiescent Drain, want 0", st.Pending)
	}
}

// TestColdViewFlushBoundedByHotFlood: one flooded hot view and one
// cold view share a single-worker pool. Round-robin quanta mean the
// cold view's Flush barrier waits behind at most one hot batch per
// round, not behind the hot view's whole backlog — the admission-
// control contract of the shared scheduler.
func TestColdViewFlushBoundedByHotFlood(t *testing.T) {
	pool := sched.NewPool(1, nil)
	defer pool.Close()

	hot := start(t, newMemBackend(t), Options{Pool: pool, Name: "hot"})
	cold := start(t, newMemBackend(t), Options{Pool: pool, Name: "cold"})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = hot.TrainAsync(1, 1)
			}
		}()
	}
	defer func() { close(stop); wg.Wait() }()

	// Let the flood establish a standing backlog.
	time.Sleep(20 * time.Millisecond)

	for i := 0; i < 10; i++ {
		begin := time.Now()
		if err := cold.FlushTok(cold.NewToken()); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(begin); d > 10*time.Second {
			t.Fatalf("cold-view flush took %v under hot flood — starved", d)
		}
	}
}

// panicBackend panics inside ApplyTrainBatch while armed; otherwise
// it delegates to the real memBackend.
type panicBackend struct {
	*memBackend
	armed atomic.Bool
}

func (b *panicBackend) ApplyTrainBatch(ops []TrainOp) []error {
	if b.armed.Load() {
		panic("injected maintenance panic")
	}
	return b.memBackend.ApplyTrainBatch(ops)
}

// TestMaintenancePanicFailsBatchNotProcess: a panic out of the
// backend during a batch must surface as that batch's error — sync
// waiters unblock, async producers see it at the next flush — and the
// engine (and the shared pool worker under it) must keep serving
// later batches.
func TestMaintenancePanicFailsBatchNotProcess(t *testing.T) {
	be := &panicBackend{memBackend: newMemBackend(t)}
	e := start(t, be, Options{})

	be.armed.Store(true)
	err := e.Train(1, 1)
	if err == nil || !strings.Contains(err.Error(), "maintenance panic") {
		t.Fatalf("sync Train under panic = %v, want maintenance panic error", err)
	}

	tok := e.NewToken()
	if err := e.TrainAsyncTok(tok, 2, -1); err != nil {
		t.Fatal(err)
	}
	if err := e.FlushTok(tok); err == nil || !strings.Contains(err.Error(), "maintenance panic") {
		t.Fatalf("FlushTok after async panic = %v, want maintenance panic error", err)
	}

	// Disarmed, the same engine keeps working: the panic killed one
	// batch, not the view or a pool worker.
	be.armed.Store(false)
	for _, tr := range []TrainOp{{1, 1}, {2, -1}, {3, 1}, {4, -1}} {
		if err := e.Train(tr.ID, tr.Label); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := e.Snapshot().Label(1); err != nil || got != 1 {
		t.Fatalf("Label(1) after recovery = %d, %v", got, err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close after panic recovery: %v", err)
	}
}

// TestManyEnginesShareOnePool: hundreds of engines on one small pool
// all make progress and park; this is the O(pool) goroutine story at
// the unit level (the root-level benchmark asserts the goroutine
// count).
func TestManyEnginesShareOnePool(t *testing.T) {
	pool := sched.NewPool(2, nil)
	defer pool.Close()

	const n = 100
	engines := make([]*Engine, n)
	for i := range engines {
		engines[i] = start(t, newMemBackend(t), Options{Pool: pool, QueueSize: 16})
	}
	var wg sync.WaitGroup
	for _, e := range engines {
		wg.Add(1)
		go func(e *Engine) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if err := e.TrainAsync(int64(j%4+1), 1); err != nil {
					t.Error(err)
					return
				}
			}
			if err := e.Flush(); err != nil {
				t.Error(err)
			}
		}(e)
	}
	wg.Wait()
	for i, e := range engines {
		if st := e.Stats(); st.Trains != 10 {
			t.Fatalf("engine %d Trains = %d, want 10", i, st.Trains)
		}
	}
}
