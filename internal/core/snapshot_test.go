package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"hazy/internal/btree"
	"hazy/internal/learn"
	"hazy/internal/storage"
	"hazy/internal/vector"
)

// snapReads is every read shape a published snapshot answers.
type snapReads struct {
	labels    map[int64]int
	eps       map[int64]float64
	missing   error
	scan      []SnapEntry
	band      []SnapEntry
	members   []int64
	count     int
	uncertain map[int][]int64
}

var uncertainKs = []int{1, 7, 50, 5000}

func readSnapshot(t *testing.T, s *Snapshot, ids []int64) snapReads {
	t.Helper()
	r := snapReads{labels: map[int64]int{}, eps: map[int64]float64{}, uncertain: map[int][]int64{}}
	for _, id := range ids {
		l, err := s.Label(id)
		if err != nil {
			t.Fatalf("Label(%d): %v", id, err)
		}
		e, err := s.EpsOf(id)
		if err != nil {
			t.Fatalf("EpsOf(%d): %v", id, err)
		}
		r.labels[id], r.eps[id] = l, e
	}
	_, r.missing = s.Label(-1)
	r.scan = drainScan(t, s, math.Inf(-1), math.Inf(1))
	r.band = drainScan(t, s, -0.25, 0.25)
	r.members = s.Members()
	r.count = s.CountMembers()
	for _, k := range uncertainKs {
		ids, err := s.MostUncertain(k)
		if err != nil {
			t.Fatal(err)
		}
		r.uncertain[k] = ids
	}
	return r
}

// checkSnapshot asserts a fresh snapshot is exact: labels equal a
// from-scratch Predict, rows scan in the live view's merged (eps, id)
// order, and Members and MostUncertain are what one walk over that
// merged order gives: the answers of one globally merged row list.
func checkSnapshot(t *testing.T, v *StripedView, r snapReads, feats map[int64]vector.Vector) {
	t.Helper()
	model := v.Model()
	oracle := 0
	for id, f := range feats {
		if want := model.Predict(f); r.labels[id] != want {
			t.Fatalf("Label(%d) = %d, from-scratch %d", id, r.labels[id], want)
		} else if want > 0 {
			oracle++
		}
	}
	if r.missing == nil {
		t.Fatal("Label of a missing id succeeded")
	}
	live := drainScan(t, v, math.Inf(-1), math.Inf(1))
	if !reflect.DeepEqual(r.scan, live) {
		t.Fatalf("snapshot scan (%d rows) differs from the live merged scan (%d rows)", len(r.scan), len(live))
	}
	var members []int64
	for i, e := range r.scan {
		if i > 0 && !snapLess(r.scan[i-1], e) {
			t.Fatalf("scan not in (eps, id) order at %d", i)
		}
		if e.Eps != r.eps[e.ID] || int(e.Label) != r.labels[e.ID] {
			t.Fatalf("scan row %+v disagrees with EpsOf %g / Label %d", e, r.eps[e.ID], r.labels[e.ID])
		}
		if e.Label > 0 {
			members = append(members, e.ID)
		}
	}
	if !reflect.DeepEqual(r.members, members) || r.count != oracle || len(members) != oracle {
		t.Fatalf("members %d (count %d), want %d in scan order", len(r.members), r.count, oracle)
	}
	for _, k := range uncertainKs {
		var want []int64
		for _, e := range walkUncertain(r.scan, k) {
			want = append(want, e.ID)
		}
		if !reflect.DeepEqual(r.uncertain[k], want) {
			t.Fatalf("MostUncertain(%d) = %v, walk over the merged order %v", k, r.uncertain[k], want)
		}
	}
}

// TestSnapshotVersionIsolation publishes a version after every step
// while the live view runs band sweeps, inserts into the delta (past a
// fold) and a forced reorganization: every retained version keeps
// answering every read shape exactly as at publish, and every new one
// is exact. Ties on equal eps come from duplicated feature vectors.
func TestSnapshotVersionIsolation(t *testing.T) {
	for _, p := range []int{1, 4} {
		for _, mode := range []Mode{Eager, Lazy} {
			t.Run(fmt.Sprintf("P%d/%s", p, mode), func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(23 + p)))
				entities := testEntities(r, 400)
				for i := 0; i < 40; i++ { // exact eps ties
					entities = append(entities, Entity{ID: int64(400 + i), F: entities[i%8].F})
				}
				v, err := NewStriped(entities, p, Options{Mode: mode, Reorg: ReorgNever, Norm: math.Inf(1),
					SGD: learn.SGDConfig{Eta0: 0.3}, Warm: trainingStream(r, 30)})
				if err != nil {
					t.Fatal(err)
				}
				feats := map[int64]vector.Vector{}
				var ids []int64
				for _, e := range entities {
					feats[e.ID] = e.F
					ids = append(ids, e.ID)
				}
				type retained struct {
					s     *Snapshot
					reads snapReads
					ids   []int64
					step  string
				}
				var kept []retained
				publish := func(step string) {
					t.Helper()
					s, err := v.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					reads := readSnapshot(t, s, ids)
					checkSnapshot(t, v, reads, feats)
					kept = append(kept, retained{s, reads, slices.Clone(ids), step})
				}
				recheck := func(after string) {
					t.Helper()
					for _, k := range kept {
						if got := readSnapshot(t, k.s, k.ids); !reflect.DeepEqual(got, k.reads) {
							t.Fatalf("after %s, the version published at %s answers differently", after, k.step)
						}
					}
				}
				insert := func(f vector.Vector) {
					t.Helper()
					e := Entity{ID: int64(10_000 + len(ids)), F: f}
					if err := v.Insert(e); err != nil {
						t.Fatal(err)
					}
					feats[e.ID] = e.F
					ids = append(ids, e.ID)
				}

				for i := 0; i < 3; i++ { // the first versions already hold a delta
					insert(entities[i].F)
				}
				publish("build")
				for i := 0; i < 12; i++ {
					if err := v.UpdateBatch(trainingStream(r, 1+i%3)); err != nil {
						t.Fatal(err)
					}
					publish(fmt.Sprintf("sweep %d", i))
				}
				recheck("band sweeps")

				for i := 0; i < p*maxDelta+50; i++ {
					f := vector.NewDense([]float64{r.Float64() * 2, r.Float64() * 2})
					if i%10 == 0 {
						f = entities[i%8].F // ties reach the delta too
					}
					insert(f)
					if i%200 == 199 {
						if err := v.UpdateBatch(trainingStream(r, 1)); err != nil {
							t.Fatal(err)
						}
					}
					if i%41 == 0 {
						publish(fmt.Sprintf("insert %d", i))
					}
				}
				recheck("inserts into the delta")

				cur := v.Model()
				if err := v.forStripes(func(_ int, st *stripe) error { return st.reorganize(cur) }); err != nil {
					t.Fatal(err)
				}
				publish("reorganization")
				recheck("a forced reorganization")
			})
		}
	}
}

// TestSnapshotVersionsConcurrentReads runs readers on retained versions
// while a writer sweeps, inserts, folds and reorganizes the live view
// and keeps publishing; -race checks that no version shares mutable
// state with the live store.
func TestSnapshotVersionsConcurrentReads(t *testing.T) {
	for _, p := range []int{1, 4} {
		t.Run(fmt.Sprintf("P%d", p), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(31 + p)))
			v, err := NewStriped(testEntities(r, 300), p, Options{Norm: math.Inf(1),
				SGD: learn.SGDConfig{Eta0: 0.3}, Warm: trainingStream(r, 20)})
			if err != nil {
				t.Fatal(err)
			}
			first, err := v.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			var latest atomic.Pointer[Snapshot]
			latest.Store(first)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < 3; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						for _, s := range []*Snapshot{first, latest.Load()} {
							if got := len(s.Members()); got != s.CountMembers() {
								t.Errorf("Members %d vs CountMembers %d", got, s.CountMembers())
								return
							}
							c, _ := s.ScanEps(math.Inf(-1), math.Inf(1))
							n, prev := 0, SnapEntry{Eps: math.Inf(-1)}
							for e, ok, _ := c.Next(); ok; e, ok, _ = c.Next() {
								if n > 0 && !snapLess(prev, e) {
									t.Errorf("version scan out of order at row %d", n)
									return
								}
								if _, err := s.Label(e.ID); err != nil {
									t.Error(err)
									return
								}
								prev = e
								n++
							}
							if n != s.Len() {
								t.Errorf("scan %d rows, Len %d", n, s.Len())
								return
							}
							s.MostUncertain(5) //nolint:errcheck — a clustered version never fails
						}
					}
				}()
			}
			next := int64(1000)
			for i := 0; i < 2*maxDelta*p+100; i++ {
				switch {
				case i%150 == 149:
					cur := v.Model()
					if err := v.forStripes(func(_ int, st *stripe) error { return st.reorganize(cur) }); err != nil {
						t.Fatal(err)
					}
				case i%3 == 0:
					if err := v.UpdateBatch(trainingStream(r, 2)); err != nil {
						t.Fatal(err)
					}
				default:
					if err := v.Insert(Entity{ID: next, F: vector.NewDense([]float64{r.Float64() * 2, r.Float64() * 2})}); err != nil {
						t.Fatal(err)
					}
					next++
				}
				s, err := v.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				latest.Store(s)
			}
			close(stop)
			wg.Wait()
		})
	}
}

// TestSnapshotPublishAllocatesLessThanAByteAnEntity pins the publish
// cost: after a sweep-only batch, a main-memory publish shares the
// segment and copies only the band and the delta, so it allocates
// fewer bytes than the view has entities.
func TestSnapshotPublishAllocatesLessThanAByteAnEntity(t *testing.T) {
	const n = 50_000
	r := rand.New(rand.NewSource(5))
	v, err := NewStriped(testEntities(r, n), 1, Options{Reorg: ReorgNever, Norm: math.Inf(1),
		SGD: learn.SGDConfig{Eta0: 0.3}, Warm: trainingStream(r, 200)})
	if err != nil {
		t.Fatal(err)
	}
	// A far-from-boundary example moves the model by regularization
	// only, so the sweep's band stays narrow.
	far := vector.NewDense([]float64{2, 2})
	if err := v.UpdateBatch([]learn.Example{{F: far, Label: v.Model().Predict(far)}}); err != nil {
		t.Fatal(err)
	}
	if band := v.Stats().BandTuples; band > n/10 {
		t.Fatalf("band holds %d of %d tuples; the pin needs a narrow band", band, n)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := v.Snapshot()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= n {
		t.Fatalf("publish allocated %d bytes for %d entities, want < %d", got, s.Len(), n)
	}
}

var benchSnapshot *Snapshot

// BenchmarkSnapshotPublish times one publish after a sweep-only batch
// at 200k entities — the per-write publish an engined view pays.
func BenchmarkSnapshotPublish(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	entities := testEntities(r, 200_000)
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("P%d", p), func(b *testing.B) {
			v, err := NewStriped(entities, p, Options{Reorg: ReorgNever, Norm: math.Inf(1),
				SGD: learn.SGDConfig{Eta0: 0.3}, Warm: trainingStream(r, 200)})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := v.UpdateBatch(trainingStream(r, 1)); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if benchSnapshot, err = v.Snapshot(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSweepBand times one eager band sweep at 200k entities over a
// fixed band of ~6 % of every stripe around eps = 0 — about the share
// the write workload sweeps per batch — and reports it per band row.
// The P sub-benchmarks sweep main-memory stripes; OD/P sweep on-disk
// stripes (a 512-page pool, as on a served on-disk view), where a
// per-row record copy shows as allocs/op.
func BenchmarkSweepBand(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	entities := testEntities(r, 200_000)
	memEps := func(st *stripe) []float64 { return st.store.(*memStripeStore).seg.eps }
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("P%d", p), func(b *testing.B) {
			v, err := NewStriped(entities, p, Options{Reorg: ReorgNever, Norm: math.Inf(1),
				SGD: learn.SGDConfig{Eta0: 0.3}, Warm: trainingStream(r, 200)})
			if err != nil {
				b.Fatal(err)
			}
			benchSweep(b, v, memEps)
		})
	}
	diskEps := func(st *stripe) []float64 {
		var eps []float64
		err := st.store.(*diskStripeStore).dt.tree.Scan(func(k btree.Key, _ storage.RID) (bool, error) {
			eps = append(eps, k.Eps)
			return true, nil
		})
		if err != nil {
			b.Fatal(err)
		}
		return eps
	}
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("OD/P%d", p), func(b *testing.B) {
			v, err := NewStripedDisk(b.TempDir(), 512, entities, p, Options{Reorg: ReorgNever, Norm: math.Inf(1),
				SGD: learn.SGDConfig{Eta0: 0.3}, Warm: trainingStream(r, 200)})
			if err != nil {
				b.Fatal(err)
			}
			defer v.Close()
			benchSweep(b, v, diskEps)
		})
	}
}

// benchSweep sweeps a fixed band of ~6 % of every stripe of v around
// eps = 0, reading each stripe's eps-sorted keys through stripeEps.
func benchSweep(b *testing.B, v *StripedView, stripeEps func(st *stripe) []float64) {
	cur := v.Model()
	bands := make([][2]float64, len(v.stripes))
	rows := 0
	for i, st := range v.stripes {
		eps := stripeEps(st)
		z, w := sort.SearchFloat64s(eps, 0), len(eps)*3/100
		a, c := max(0, z-w), min(len(eps)-1, z+w)
		bands[i] = [2]float64{eps[a], eps[c]}
		rows += c - a + 1
	}
	sweep := func() {
		err := v.forStripes(func(i int, st *stripe) error {
			_, err := st.store.SweepBand(bands[i][0], bands[i][1], cur.Predict)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	sweep() // the first sweep widens the overlay over the band / patches it on disk
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
}

// BenchmarkReorganize times one reorganization of every stripe at 200k
// entities, after a batch has moved the model and one entity has been
// inserted: the reclustering a Skiing decision charges to S.
func BenchmarkReorganize(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	entities := testEntities(r, 200_000)
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("P%d", p), func(b *testing.B) {
			v, err := NewStriped(entities, p, Options{Reorg: ReorgNever, Norm: math.Inf(1),
				SGD: learn.SGDConfig{Eta0: 0.3}, Warm: trainingStream(r, 200)})
			if err != nil {
				b.Fatal(err)
			}
			next := int64(len(entities))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := v.UpdateBatch(trainingStream(r, 1)); err != nil {
					b.Fatal(err)
				}
				if err := v.Insert(Entity{ID: next, F: trainingStream(r, 1)[0].F}); err != nil {
					b.Fatal(err)
				}
				next++
				cur := v.Model()
				b.StartTimer()
				if err := v.forStripes(func(_ int, st *stripe) error { return st.reorganize(cur) }); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
