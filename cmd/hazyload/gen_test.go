package main

import (
	"strings"
	"testing"
)

// stream renders the first n statements of every generator a run of w
// uses, the way run wires them.
func stream(seed uint64, w *workload, n int) string {
	c := newCorpus(seed)
	var b strings.Builder
	for conn := 0; conn < 2; conn++ {
		var hot zipf
		if w.hotTheta > 0 {
			hot = newZipf(w.entities, w.hotTheta)
		}
		rd := newReader(seed, conn, w.readMix, w.entities, hot)
		for i := 0; i < n; i++ {
			b.WriteString(rd.next().line)
			b.WriteByte('\n')
		}
	}
	wr := newWriter(c, seed, w.entities, w.warm(), w.addEvery, w.async)
	for i := 0; i < w.warm(); i++ {
		id := wr.warm(i)
		b.WriteString(c.title(id))
		b.WriteByte(byte('0' + 1 + c.label(id)))
		b.WriteByte('\n')
	}
	for i := 0; i < n; i++ {
		b.WriteString(wr.next().line)
		b.WriteByte('\n')
	}
	return b.String()
}

func TestSameSeedSameStream(t *testing.T) {
	for _, w0 := range workloads {
		w := *w0
		w.entities = 5000
		a, b, other := stream(7, &w, 3000), stream(7, &w, 3000), stream(8, &w, 3000)
		if a != b {
			t.Errorf("%s: the same seed gave two different statement streams", w.name)
		}
		if a == other {
			t.Errorf("%s: seeds 7 and 8 gave the same statement stream", w.name)
		}
	}
}

// Training ids must name loaded entities and never repeat (the examples
// table is keyed by entity id), warm examples included; new entity ids
// must be fresh. The stream is walked past the point where the loaded
// ids run out, where it must degrade to inserts, not to duplicates.
func TestWriterIDs(t *testing.T) {
	for _, async := range []bool{false, true} {
		const n = 3000
		c := newCorpus(3)
		wr := newWriter(c, 3, n, 500, 10, async)
		trained, added := map[int64]bool{}, map[int64]bool{}
		for i := 0; i < 500; i++ {
			id := wr.warm(i)
			if id < 1 || id > n || trained[id] {
				t.Fatalf("warm example %d names id %d: outside 1..%d or repeated", i, id, n)
			}
			trained[id] = true
		}
		for i := 0; i < 2*n; i++ {
			s := wr.next()
			switch s.class {
			case opTrain:
				if s.id < 1 || s.id > n || trained[s.id] {
					t.Fatalf("statement %d trains id %d: outside the loaded entities or already trained", i, s.id)
				}
				trained[s.id] = true
			case opAdd:
				if s.id <= n || added[s.id] {
					t.Fatalf("statement %d adds id %d: collides with a loaded or added entity", i, s.id)
				}
				added[s.id] = true
				if s.text != c.title(s.id) || !strings.Contains(s.line, s.text) {
					t.Fatalf("statement %d: added text is not the corpus title of id %d", i, s.id)
				}
			case opFlush:
				if !async {
					t.Fatalf("statement %d: FLUSH in a synchronous stream", i)
				}
			}
		}
		if len(trained) != n {
			t.Errorf("async=%v: %d of %d loaded entities trained after 2n statements", async, len(trained), n)
		}
		if wr.added() != len(added) {
			t.Errorf("async=%v: added() = %d, stream inserted %d", async, wr.added(), len(added))
		}
	}
}

func TestPermIsABijection(t *testing.T) {
	for _, n := range []int{1, 2, 400, 5000, 200_000} {
		r := fork(uint64(n), 1)
		p := newPerm(n, &r)
		seen := make([]bool, n+1)
		for i := 0; i < n; i++ {
			id := p.id(i)
			if id < 1 || id > int64(n) || seen[id] {
				t.Fatalf("n=%d: position %d maps to %d, out of range or repeated", n, i, id)
			}
			seen[id] = true
		}
	}
}

func TestTitleShape(t *testing.T) {
	c := newCorpus(1)
	tokens := 0
	for id := int64(1); id <= 2000; id++ {
		n := len(strings.Fields(c.title(id)))
		if n < 6 || n > 10 {
			t.Fatalf("title of %d has %d tokens, want 6..10", id, n)
		}
		tokens += n
		if c.title(id) != c.title(id) {
			t.Fatalf("title of %d is not a function of its id", id)
		}
	}
	if mean := float64(tokens) / 2000; mean < 7.5 || mean > 8.5 {
		t.Errorf("mean title length %.2f tokens, want about 8", mean)
	}
}
