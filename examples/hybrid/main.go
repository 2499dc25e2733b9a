// Hybrid: the §3.5.2 architecture — a full on-disk Hazy view plus a
// tiny ε-map and a bounded boundary buffer in memory, built here as a
// one-stripe StripedView over the hybrid store (the same thing
// core.New returns for an unstriped hybrid). Shows the memory
// footprint next to the data set size (Figure 6(A)) and how the read
// path splits across ε-map / buffer / disk as the buffer grows
// (Figure 6(B)), from the view's App. B.4 hit counters. (Works at the
// core-view layer; through the Session front door the same
// architecture is declared with ARCHITECTURE HYBRID in CREATE
// CLASSIFICATION VIEW.) Run with: go run ./examples/hybrid
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"

	"hazy/internal/core"
	"hazy/internal/dataset"
	"hazy/internal/learn"
)

func main() {
	scratch, err := os.MkdirTemp("", "hazy-hybrid-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(scratch)

	data := dataset.Generate(dataset.Citeseer.Scale(0.3))
	ds := data.Stats()
	fmt.Printf("corpus: %d abstracts, %.1f MB with feature vectors\n",
		ds.Entities, float64(ds.SizeBytes)/(1<<20))

	warm := data.Stream(2000)
	for _, bufFrac := range []float64{0.01, 0.10, 0.50} {
		view, err := core.NewStripedHybrid(
			fmt.Sprintf("%s/buf-%g", scratch, bufFrac), 2048, data.Entities, 1,
			core.Options{
				Mode:       core.Eager,
				SGD:        learn.SGDConfig{Eta0: 0.5},
				Warm:       warm,
				BufferFrac: bufFrac,
			})
		if err != nil {
			log.Fatal(err)
		}
		// Drift the model a little so the water band is non-trivial.
		for i := 0; i < 300; i++ {
			ex := data.Example()
			if err := view.Update(ex.F, ex.Label); err != nil {
				log.Fatal(err)
			}
		}
		// 20k random Single Entity reads.
		r := rand.New(rand.NewSource(9))
		for i := 0; i < 20000; i++ {
			if _, err := view.Label(int64(r.Intn(len(data.Entities)))); err != nil {
				log.Fatal(err)
			}
		}
		epsHits, bufHits, diskHits := view.Hits()
		st := view.Stats()
		fmt.Printf("\nbuffer = %3.0f%% of entities:\n", bufFrac*100)
		fmt.Printf("  in-memory: ε-map %.1f KB + buffer %.1f KB (data set %.1f MB)\n",
			float64(st.EpsMapBytes)/1024, float64(st.BufferBytes)/1024,
			float64(ds.SizeBytes)/(1<<20))
		total := float64(epsHits + bufHits + diskHits)
		fmt.Printf("  reads: %.1f%% answered by ε-map watermarks, %.1f%% by buffer, %.1f%% hit disk\n",
			100*float64(epsHits)/total, 100*float64(bufHits)/total, 100*float64(diskHits)/total)
		view.Close()
	}
}
