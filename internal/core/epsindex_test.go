package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"hazy/internal/learn"
)

// collect opens an eps-range cursor and drains it.
func collect(t *testing.T, ei EpsIndexed, lo, hi float64) []SnapEntry {
	t.Helper()
	c, err := ei.ScanEps(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var out []SnapEntry
	for {
		e, ok, nerr := c.Next()
		if nerr != nil {
			t.Fatal(nerr)
		}
		if !ok {
			return out
		}
		out = append(out, e)
	}
}

// TestEpsIndexAgreesAcrossLayouts drives the same update stream into
// every Hazy-strategy layout plus an exported snapshot and checks the
// EpsIndexed surface agrees everywhere: full eps scans are
// eps-ascending, row labels match Label, band scans match the full
// scan filtered to the band, and EpsOf matches the scanned eps.
func TestEpsIndexAgreesAcrossLayouts(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	entities := testEntities(r, 300)
	views := allVariants(t, entities, Options{Norm: 2, SGD: learn.SGDConfig{Eta0: 0.3}})
	for _, ex := range trainingStream(r, 40) {
		for _, v := range views {
			if err := v.Update(ex.F, ex.Label); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The naive layouts have no clustering and say so by not exposing
	// the surface at all.
	for name, v := range views {
		ei, ok := v.(EpsIndexed)
		if naive := strings.Contains(name, "/naive/"); ok == naive {
			t.Fatalf("%s: EpsIndexed surface = %v", name, ok)
		} else if naive {
			continue
		}
		if !ei.Clustered() {
			t.Fatalf("%s: Hazy layout not clustered", name)
		}

		full := collect(t, ei, math.Inf(-1), math.Inf(1))
		if len(full) != len(entities) {
			t.Fatalf("%s: full eps scan returned %d rows, want %d", name, len(full), len(entities))
		}
		var lo, hi float64
		for i, e := range full {
			if i > 0 && e.Eps < full[i-1].Eps {
				t.Fatalf("%s: scan not eps-ascending at %d", name, i)
			}
			want, err := v.Label(e.ID)
			if err != nil {
				t.Fatal(err)
			}
			if int(e.Label) != want {
				t.Fatalf("%s: scanned label of %d = %d, Label says %d", name, e.ID, e.Label, want)
			}
			eps, err := ei.EpsOf(e.ID)
			if err != nil {
				t.Fatal(err)
			}
			if eps != e.Eps {
				t.Fatalf("%s: EpsOf(%d) = %g, scan says %g", name, e.ID, eps, e.Eps)
			}
			if i == len(full)/4 {
				lo = e.Eps
			}
			if i == 3*len(full)/4 {
				hi = e.Eps
			}
		}
		// Band scan = full scan filtered to [lo, hi].
		band := collect(t, ei, lo, hi)
		want := 0
		for _, e := range full {
			if e.Eps >= lo && e.Eps <= hi {
				want++
			}
		}
		if len(band) != want {
			t.Fatalf("%s: band scan [%g,%g] returned %d rows, want %d", name, lo, hi, len(band), want)
		}
	}

	// A snapshot exported from the main-memory view agrees with its
	// source.
	mm := views["mm/hazy/eager"].(*StripedView)
	snap, err := mm.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Clustered() {
		t.Fatal("hazy snapshot not clustered")
	}
	fromView := collect(t, mm, math.Inf(-1), math.Inf(1))
	fromSnap := collect(t, snap, math.Inf(-1), math.Inf(1))
	if len(fromView) != len(fromSnap) {
		t.Fatalf("snapshot scan %d rows vs view %d", len(fromSnap), len(fromView))
	}
	for i := range fromSnap {
		if fromSnap[i] != fromView[i] {
			t.Fatalf("row %d: snapshot %+v vs view %+v", i, fromSnap[i], fromView[i])
		}
	}
	if _, err := snap.EpsOf(int64(len(entities) + 5)); err == nil {
		t.Fatal("EpsOf of missing entity succeeded")
	}
	// An inverted range is an empty scan on every layout, snapshots
	// included (the planner passes user-written bounds straight down).
	if got := collect(t, snap, 1, -1); len(got) != 0 {
		t.Fatalf("inverted snapshot range returned %d rows", len(got))
	}
	if got := collect(t, mm, 1, -1); len(got) != 0 {
		t.Fatalf("inverted main-memory range returned %d rows", len(got))
	}

	// A naive view's snapshot is unclustered and says so.
	naive, err := views["mm/naive/eager"].(Snapshotter).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if naive.Clustered() {
		t.Fatal("naive snapshot claims clustering")
	}
	if _, err := naive.EpsOf(0); err == nil {
		t.Fatal("EpsOf on an unclustered snapshot succeeded")
	}
	if _, err := naive.ScanEps(-1, 1); err == nil {
		t.Fatal("ScanEps on an unclustered snapshot succeeded")
	}
}
