package engine

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hazy/internal/core"
	"hazy/internal/learn"
	"hazy/internal/vector"
)

// memBackend is a test backend over a real main-memory view with a
// two-dimensional feature space: "pos" entities live on axis 0, "neg"
// entities on axis 1, so a handful of examples separates them.
type memBackend struct {
	view  *core.StripedView
	feats map[int64]vector.Vector

	gate         chan struct{} // when non-nil, ApplyAddBatch blocks on it
	gateEntered  chan struct{}
	trainBatches [][]TrainOp
	addBatches   [][]AddOp
	pub          atomic.Pointer[core.Snapshot]
}

func featFor(text string) (vector.Vector, error) {
	switch text {
	case "pos":
		return vector.NewDense([]float64{1, 0}), nil
	case "neg":
		return vector.NewDense([]float64{0, 1}), nil
	default:
		return vector.Vector{}, fmt.Errorf("memBackend: unknown text %q", text)
	}
}

func newMemBackend(t *testing.T) *memBackend {
	t.Helper()
	b := &memBackend{feats: map[int64]vector.Vector{}}
	var entities []core.Entity
	for id := int64(1); id <= 4; id++ {
		text := "pos"
		if id%2 == 0 {
			text = "neg"
		}
		f, _ := featFor(text)
		b.feats[id] = f
		entities = append(entities, core.Entity{ID: id, F: f})
	}
	view, err := core.NewStriped(entities, 1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b.view = view
	return b
}

func (b *memBackend) ApplyTrainBatch(ops []TrainOp) []error {
	b.trainBatches = append(b.trainBatches, ops)
	errs := make([]error, len(ops))
	var exs []learn.Example
	for i, op := range ops {
		f, ok := b.feats[op.ID]
		if !ok {
			errs[i] = fmt.Errorf("memBackend: no entity %d", op.ID)
			continue
		}
		exs = append(exs, learn.Example{ID: op.ID, F: f, Label: op.Label})
	}
	if err := core.ApplyBatch(b.view, exs); err != nil {
		for i := range errs {
			if errs[i] == nil {
				errs[i] = err
			}
		}
	}
	return errs
}

func (b *memBackend) ApplyAddBatch(ops []AddOp) []error {
	if b.gate != nil {
		b.gateEntered <- struct{}{}
		<-b.gate
	}
	b.addBatches = append(b.addBatches, append([]AddOp(nil), ops...))
	errs := make([]error, len(ops))
	for i, op := range ops {
		f, err := featFor(op.Text)
		if err != nil {
			errs[i] = err
			continue
		}
		b.feats[op.ID] = f
		errs[i] = b.view.Insert(core.Entity{ID: op.ID, F: f})
	}
	return errs
}

func (b *memBackend) Commit() error { return nil }

func (b *memBackend) Publish() error {
	s, err := b.view.Snapshot()
	if err != nil {
		return err
	}
	b.pub.Store(s)
	return nil
}

func (b *memBackend) Detach() {}

func (b *memBackend) published() *core.Snapshot { return b.pub.Load() }

// snapOf returns the version the engine last had its memBackend (or a
// wrapper around one) publish.
func snapOf(e *Engine) *core.Snapshot {
	return e.be.(interface{ published() *core.Snapshot }).published()
}

// testTok tags the async ops of tests that act as one session.
const testTok Token = 1

func start(t *testing.T, be Backend, opts Options) *Engine {
	t.Helper()
	e, err := New(be, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func TestReadYourWritesSync(t *testing.T) {
	e := start(t, newMemBackend(t), Options{})
	for _, tr := range []TrainOp{{1, 1}, {2, -1}, {3, 1}, {4, -1}} {
		if err := e.Train(tr.ID, tr.Label); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := snapOf(e).Label(1); err != nil || got != 1 {
		t.Fatalf("Label(1) = %d, %v", got, err)
	}
	if got, err := snapOf(e).Label(2); err != nil || got != -1 {
		t.Fatalf("Label(2) = %d, %v", got, err)
	}
	if n := snapOf(e).CountMembers(); n != 2 {
		t.Fatalf("CountMembers = %d, want 2", n)
	}
	if got := predict(e, "pos"); got != 1 {
		t.Fatalf("predict(pos) = %d", got)
	}
	// A synchronous Add is immediately readable too.
	if err := e.Add(9, "pos"); err != nil {
		t.Fatal(err)
	}
	if got, err := snapOf(e).Label(9); err != nil || got != 1 {
		t.Fatalf("Label(9) = %d, %v", got, err)
	}
}

// TestSyncWriteNeverPendingAfterReturn pins the counter order behind
// the STATS line: a batch counts as applied before any of its waiters
// is released, so a synchronous write that has returned is never
// reported pending.
func TestSyncWriteNeverPendingAfterReturn(t *testing.T) {
	e := start(t, newMemBackend(t), Options{})
	for i := 0; i < 2000; i++ {
		if err := e.Train(int64(1+i%4), 1-2*(i%2)); err != nil {
			t.Fatal(err)
		}
		if p := e.Stats().Pending; p != 0 {
			t.Fatalf("write %d returned but Stats().Pending = %d", i, p)
		}
	}
}

func TestAsyncVisibleAfterFlush(t *testing.T) {
	e := start(t, newMemBackend(t), Options{})
	if err := e.TrainAsync(testTok, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.TrainAsync(testTok, 2, -1); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, err := snapOf(e).Label(1); err != nil || got != 1 {
		t.Fatalf("Label(1) after flush = %d, %v", got, err)
	}
	if st := snapOf(e).Stats(); st.Updates != 2 {
		t.Fatalf("view updates = %d, want 2", st.Updates)
	}
}

// TestGroupApply blocks the maintenance goroutine on a gated ADD,
// queues many TRAINs behind it, and asserts they are drained as one
// batch applied with a single group maintenance step.
func TestGroupApply(t *testing.T) {
	be := newMemBackend(t)
	be.gate = make(chan struct{})
	be.gateEntered = make(chan struct{}, 1)
	e := start(t, be, Options{QueueSize: 128, MaxBatch: 128})

	if err := e.AddAsync(testTok, 10, "pos"); err != nil {
		t.Fatal(err)
	}
	<-be.gateEntered // maintenance goroutine is now blocked mid-batch
	const n = 40
	for i := 0; i < n; i++ {
		id := int64(1 + i%4)
		label := 1
		if id%2 == 0 {
			label = -1
		}
		if err := e.TrainAsync(testTok, id, label); err != nil {
			t.Fatal(err)
		}
	}
	close(be.gate)

	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(be.trainBatches) != 1 {
		t.Fatalf("train batches = %d, want 1 (group apply)", len(be.trainBatches))
	}
	if got := len(be.trainBatches[0]); got != n {
		t.Fatalf("batch size = %d, want %d", got, n)
	}
	st := e.Stats()
	if st.Trains != n || st.Adds != 1 {
		t.Fatalf("stats trains=%d adds=%d", st.Trains, st.Adds)
	}
	if st.MaxBatch < n {
		t.Fatalf("maxbatch = %d, want ≥ %d", st.MaxBatch, n)
	}
	if !strings.Contains(st.String(), "trains=40") {
		t.Fatalf("stats string %q", st.String())
	}
}

// TestBackpressure fills the bounded queue behind a gated op and
// verifies the next enqueue blocks until the queue drains.
func TestBackpressure(t *testing.T) {
	be := newMemBackend(t)
	be.gate = make(chan struct{})
	be.gateEntered = make(chan struct{}, 1)
	e := start(t, be, Options{QueueSize: 2, MaxBatch: 4})

	if err := e.AddAsync(testTok, 10, "pos"); err != nil {
		t.Fatal(err)
	}
	<-be.gateEntered
	// Queue capacity is 2: fill it while the worker is blocked.
	if err := e.TrainAsync(testTok, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.TrainAsync(testTok, 2, -1); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() { blocked <- e.TrainAsync(testTok, 3, 1) }()
	select {
	case err := <-blocked:
		t.Fatalf("enqueue on a full queue did not block (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(be.gate)

	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Trains != 3 || st.Pending != 0 {
		t.Fatalf("stats after drain: %+v", st)
	}
}

func TestAsyncErrorSurfacesOnFlush(t *testing.T) {
	e := start(t, newMemBackend(t), Options{})
	if err := e.TrainAsync(testTok, 777, 1); err != nil { // unknown entity
		t.Fatal(err)
	}
	if err := e.Flush(); err == nil {
		t.Fatal("Flush reported no error for a failed async op")
	}
	// The error is cleared once reported.
	if err := e.Flush(); err != nil {
		t.Fatalf("second Flush = %v", err)
	}
	if st := e.Stats(); st.Errors != 1 {
		t.Fatalf("errors = %d, want 1", st.Errors)
	}
}

// TestPerTokenErrorAttribution: async failures are reported only to
// the token that enqueued them — one session's FlushTok never
// collects another's error — while the engine-wide Flush/Close still
// sweep up whatever no session claimed.
func TestPerTokenErrorAttribution(t *testing.T) {
	e := start(t, newMemBackend(t), Options{})
	tok1, tok2 := Token(1), Token(2)
	if err := e.TrainAsync(tok1, 777, 1); err != nil { // unknown entity
		t.Fatal(err)
	}
	if err := e.TrainAsync(tok2, 1, 1); err != nil {
		t.Fatal(err)
	}
	// Session 2 flushes first: the barrier applies session 1's doomed
	// op too, but must not report its failure.
	if err := e.FlushTok(tok2); err != nil {
		t.Fatalf("FlushTok(tok2) collected a foreign error: %v", err)
	}
	if err := e.FlushTok(tok1); err == nil {
		t.Fatal("FlushTok(tok1) lost its own error")
	}
	if err := e.FlushTok(tok1); err != nil {
		t.Fatalf("error reported twice: %v", err)
	}
	// An unclaimed failure (its session never flushes) still surfaces
	// at the engine-wide barrier so it cannot be lost.
	if err := e.AddAsync(tok2, 99, "bogus-text"); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err == nil {
		t.Fatal("engine-wide Flush missed an unclaimed async error")
	}
	if st := e.Stats(); st.Errors != 2 {
		t.Fatalf("errors = %d, want 2", st.Errors)
	}
}

func TestSyncErrorsAreImmediate(t *testing.T) {
	e := start(t, newMemBackend(t), Options{})
	if err := e.Train(777, 1); err == nil {
		t.Fatal("Train of unknown entity succeeded")
	}
	if err := e.Add(1, "pos"); err == nil {
		t.Fatal("duplicate Add succeeded")
	}
	// A failed op in a batch does not poison its neighbours.
	if err := e.Train(1, 1); err != nil {
		t.Fatal(err)
	}
}

func TestOrderPreservedAcrossKinds(t *testing.T) {
	e := start(t, newMemBackend(t), Options{})
	// The TRAIN references an entity whose ADD is queued just before
	// it; arrival order must be preserved across op kinds.
	if err := e.AddAsync(testTok, 20, "neg"); err != nil {
		t.Fatal(err)
	}
	if err := e.TrainAsync(testTok, 20, -1); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, err := snapOf(e).Label(20); err != nil || got != -1 {
		t.Fatalf("Label(20) = %d, %v", got, err)
	}
}

func TestCloseDrainsAndRejects(t *testing.T) {
	e := start(t, newMemBackend(t), Options{})
	for i := 0; i < 8; i++ {
		id := int64(1 + i%4)
		label := 1
		if id%2 == 0 {
			label = -1
		}
		if err := e.TrainAsync(testTok, id, label); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Reads still work against the final snapshot and saw the drain.
	if st := snapOf(e).Stats(); st.Updates != 8 {
		t.Fatalf("updates after close = %d, want 8", st.Updates)
	}
	if err := e.Train(1, 1); err != ErrClosed {
		t.Fatalf("Train after close = %v, want ErrClosed", err)
	}
	if err := e.Flush(); err != ErrClosed {
		t.Fatalf("Flush after close = %v, want ErrClosed", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
}

// TestConcurrentMix hammers the engine from many goroutines mixing
// sync writes, async writes, flushes, and snapshot reads; run under
// -race this is the engine's data-race certificate.
func TestConcurrentMix(t *testing.T) {
	e := start(t, newMemBackend(t), Options{QueueSize: 64, MaxBatch: 32})
	const goroutines = 8
	const perG = 48
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				id := int64(1 + (g+i)%4)
				label := 1
				if id%2 == 0 {
					label = -1
				}
				var err error
				switch i % 4 {
				case 0:
					err = e.Train(id, label)
				case 1:
					err = e.TrainAsync(testTok, id, label)
				case 2:
					_, err = snapOf(e).Label(id)
				default:
					snapOf(e).CountMembers()
					snapOf(e).Members()
				}
				if err != nil {
					errc <- fmt.Errorf("g%d op%d: %w", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	want := uint64(goroutines * perG / 2) // ops 0 and 1 of every four are writes
	if st.Trains != want {
		t.Fatalf("trains = %d, want %d", st.Trains, want)
	}
	if st.Batches == 0 || st.SnapshotVersion == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// predict scores text against the published snapshot's model.
func predict(e *Engine, text string) int {
	f, _ := featFor(text)
	return snapOf(e).Model().Predict(f)
}

// TestClassifyUntrainedView: a freshly attached, never-trained view
// publishes a snapshot whose model says it is untrained — so the
// classify surface can refuse instead of serving a zero-model "+1" —
// while Label keeps answering from the snapshot.
func TestClassifyUntrainedView(t *testing.T) {
	e := start(t, newMemBackend(t), Options{})
	if m := snapOf(e).Model(); m == nil || m.Trained() {
		t.Fatalf("untrained view published model %v, want a present, untrained one", m)
	}
	if _, err := snapOf(e).Label(1); err != nil {
		t.Fatalf("Label on untrained view: %v", err)
	}
	// One training example and the published model serves.
	if err := e.Train(1, 1); err != nil {
		t.Fatal(err)
	}
	if !snapOf(e).Model().Trained() || predict(e, "pos") != 1 {
		t.Fatal("after one train the published model must be trained and predict pos = +1")
	}
}

// TestAddBatchFolding: consecutive queued ADDs reach the backend as
// one group call (the striped scatter path), with positional errors
// still attributed per op.
func TestAddBatchFolding(t *testing.T) {
	be := newMemBackend(t)
	be.gate = make(chan struct{})
	be.gateEntered = make(chan struct{})
	e := start(t, be, Options{})
	// Occupy the worker with a first add, queue five more (one bad)
	// behind it, then release: the five must arrive as one batch.
	if err := e.AddAsync(testTok, 10, "pos"); err != nil {
		t.Fatal(err)
	}
	<-be.gateEntered
	for id := int64(11); id <= 14; id++ {
		if err := e.AddAsync(testTok, id, "pos"); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.AddAsync(testTok, 15, "bogus text"); err != nil {
		t.Fatal(err)
	}
	be.gate <- struct{}{}
	<-be.gateEntered
	be.gate <- struct{}{}
	be.gate = nil

	if err := e.Flush(); err == nil || !strings.Contains(err.Error(), "unknown text") {
		t.Fatalf("Flush should surface the bad add, got %v", err)
	}
	if len(be.addBatches) != 2 || len(be.addBatches[0]) != 1 || len(be.addBatches[1]) != 5 {
		sizes := make([]int, len(be.addBatches))
		for i, b := range be.addBatches {
			sizes[i] = len(b)
		}
		t.Fatalf("add batches = %v, want [1 5]", sizes)
	}
	// The good adds all landed and are readable.
	for id := int64(10); id <= 14; id++ {
		if _, err := snapOf(e).Label(id); err != nil {
			t.Fatalf("Label(%d): %v", id, err)
		}
	}
	if _, err := snapOf(e).Label(15); err == nil {
		t.Fatal("the failed add must not be visible")
	}
}
