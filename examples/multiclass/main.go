// Multiclass: one-vs-all classification over Hazy views
// (paper App. B.5.4 / C.3) on a Forest-like 7-class data set. Each
// class gets its own incrementally maintained binary view; updates
// fan out, reads walk the decision list. (A vector-level workload
// below the Session front door — a SQL surface for multiclass views
// is future work on top of the catalog-wide Session API.)
package main

import (
	"fmt"
	"log"

	"hazy/internal/core"
	"hazy/internal/dataset"
	"hazy/internal/learn"
	"hazy/internal/multiclass"
)

func main() {
	data := dataset.Generate(dataset.Forest.Scale(0.2))
	fmt.Printf("corpus: %d entities, %d dense features, %d classes\n",
		len(data.Entities), data.Spec.Features, data.Spec.Classes)

	ids := make([]int64, len(data.Entities))
	for i, e := range data.Entities {
		ids[i] = e.ID
	}
	mc, err := multiclass.New(data.Spec.Classes, ids, func(c int) (core.View, error) {
		return core.New(core.MainMemory, core.HazyStrategy, "", 0, data.Entities, core.Options{
			Mode: core.Eager,
			Norm: 2,
			SGD:  learn.SGDConfig{Eta0: 0.5},
		})
	})
	if err != nil {
		log.Fatal(err)
	}

	// Stream labeled examples; each update maintains all 7 views.
	const updates = 6000
	for i := 0; i < updates; i++ {
		f, cls := data.MulticlassExample()
		if err := mc.Update(f, cls); err != nil {
			log.Fatal(err)
		}
	}

	// Evaluate on the stored entities against the ground truth.
	correct := 0
	classCounts := make([]int, data.Spec.Classes)
	for _, e := range data.Entities {
		got, err := mc.Label(e.ID)
		if err != nil {
			log.Fatal(err)
		}
		classCounts[got]++
		if got == data.Class(e.F) {
			correct++
		}
	}
	fmt.Printf("after %d updates: %.1f%% of entities match ground truth\n",
		updates, 100*float64(correct)/float64(len(data.Entities)))
	fmt.Printf("class sizes via decision list: %v\n", classCounts)

	// The per-class views expose their own maintenance stats.
	for c := 0; c < data.Spec.Classes; c++ {
		st := mc.View(c).Stats()
		fmt.Printf("  class %d view: %d reorgs, band holds %d tuples\n",
			c, st.Reorgs, st.BandTuples)
	}
}
