package feature

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"unicode"

	"hazy/internal/vector"
)

// The rune-by-rune tokenizer and the map-based feature functions that
// appendTokens and featurize replaced, kept as the reference the
// bit-identity tests and fuzz targets compare against. Like the
// originals, the reference ComputeFeature assigns an index to every
// unseen term.

func refTokenize(s string) []string {
	var toks []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			toks = append(toks, b.String())
			b.Reset()
		}
	}
	for _, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			b.WriteRune(unicode.ToLower(r))
		} else {
			flush()
		}
	}
	flush()
	return toks
}

// refFunc is one built-in in its map-based form.
type refFunc struct {
	name  string
	index map[string]int32
	terms []string
	df    map[int32]int // tf_idf_bag_of_words
	docs  int
	cf    map[int32]int // tf_icf
	total int
}

func newRef(name string) *refFunc {
	return &refFunc{name: name, index: map[string]int32{}, df: map[int32]int{}, cf: map[int32]int{}}
}

func (f *refFunc) lookup(t string) int32 {
	if i, ok := f.index[t]; ok {
		return i
	}
	i := int32(len(f.terms))
	f.index[t] = i
	f.terms = append(f.terms, t)
	return i
}

func (f *refFunc) ComputeStats(corpus []string) {
	for _, d := range corpus {
		if f.name != "tf_icf" {
			f.ComputeStatsInc(d)
			continue
		}
		for _, t := range refTokenize(d) {
			f.cf[f.lookup(t)]++
			f.total++
		}
	}
}

func (f *refFunc) ComputeStatsInc(doc string) {
	switch f.name {
	case "tf_bag_of_words":
		for _, t := range refTokenize(doc) {
			f.lookup(t)
		}
	case "tf_idf_bag_of_words":
		seen := map[int32]bool{}
		for _, t := range refTokenize(doc) {
			seen[f.lookup(t)] = true
		}
		f.docs++
		for i := range seen {
			f.df[i]++
		}
	}
}

func (f *refFunc) ComputeFeature(doc string) vector.Vector {
	counts := map[int32]float64{}
	for _, t := range refTokenize(doc) {
		counts[f.lookup(t)]++
	}
	for i, c := range counts {
		switch f.name {
		case "tf_idf_bag_of_words":
			counts[i] = c * math.Log(float64(1+f.docs)/float64(1+f.df[i]))
		case "tf_icf":
			counts[i] = c * math.Log(float64(1+f.total)/float64(1+f.cf[i]))
		}
	}
	v := vector.FromMap(counts)
	v.L1Normalize()
	return v
}

var builtins = []string{"tf_bag_of_words", "tf_idf_bag_of_words", "tf_icf"}

func vocabOf(f Func) *Vocab {
	switch f := f.(type) {
	case *TFBagOfWords:
		return f.Vocab
	case *TFIDF:
		return f.Vocab
	case *TFICF:
		return f.Vocab
	}
	panic("not a built-in")
}

// hazyloadTitle is a title shaped like the benchmark's corpus: 6-10
// tokens "tNNNN" over a skewed vocabulary.
func hazyloadTitle(r *rand.Rand) string {
	var b strings.Builder
	for k, n := 0, 6+r.Intn(5); k < n; k++ {
		if k > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "t%04d", r.Intn(r.Intn(5000)+1))
	}
	return b.String()
}

func identityDocs() []string {
	docs := []string{
		"", "   ", "---", "Hello, World! SQL-99 & DBMSs", "Straße İstanbul ΣΊΣΥΦΟΣ",
		"MiXeD CaSe mixed case MIXED", "a1b2 c3 42 007 x", "tab\tnew\nline\rcr",
		"trailing punct!!!", "t0001 t0001 t0001", "naïve café 42",
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		docs = append(docs, hazyloadTitle(r))
	}
	return docs
}

func sameVector(t *testing.T, doc string, got, want vector.Vector) {
	t.Helper()
	if (got.Idx == nil) != (want.Idx == nil) || !slices.Equal(got.Idx, want.Idx) || len(got.Val) != len(want.Val) {
		t.Fatalf("%q: got %v, reference %v", doc, got, want)
	}
	for k := range got.Val {
		if math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
			t.Fatalf("%q: component %d = %v, reference %v", doc, got.Idx[k], got.Val[k], want.Val[k])
		}
	}
}

func sameVocab(t *testing.T, v *Vocab, ref *refFunc) {
	t.Helper()
	if v.Size() != len(ref.terms) {
		t.Fatalf("vocabulary holds %d terms, reference %d", v.Size(), len(ref.terms))
	}
	for i, term := range ref.terms {
		if got := v.Term(int32(i)); got != term {
			t.Fatalf("term %d = %q, reference %q", i, got, term)
		}
	}
}

// checkIdentity makes the corpus pass on a built-in and on its
// reference, then featurizes every corpus document and every query.
// A query is first a read, which must not grow the vocabulary and must
// equal the reference's vector without the components of the terms the
// reference just assigned, then a write, after which both agree whole.
func checkIdentity(t *testing.T, name string, corpus, queries []string) {
	t.Helper()
	f, err := NewRegistry().New(name)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRef(name)
	f.ComputeStats(corpus)
	ref.ComputeStats(corpus)
	v := vocabOf(f)
	sameVocab(t, v, ref)
	for _, d := range corpus {
		sameVector(t, d, f.ComputeFeature(d), ref.ComputeFeature(d))
	}
	for _, q := range queries {
		size := v.Size()
		want := ref.ComputeFeature(q)
		k := 0
		for k < len(want.Idx) && int(want.Idx[k]) < size {
			k++
		}
		sameVector(t, q, f.ComputeFeature(q), vector.Vector{Idx: want.Idx[:k], Val: want.Val[:k]})
		if v.Size() != size {
			t.Fatalf("%q: ComputeFeature grew the vocabulary from %d to %d terms", q, size, v.Size())
		}
		f.ComputeStatsInc(q)
		ref.ComputeStatsInc(q)
		sameVocab(t, v, ref)
		sameVector(t, q, f.ComputeFeature(q), ref.ComputeFeature(q))
	}
}

func TestTokenizeMatchesReference(t *testing.T) {
	for _, d := range identityDocs() {
		if got, want := Tokenize(d), refTokenize(d); !slices.Equal(got, want) {
			t.Fatalf("Tokenize(%q) = %q, reference %q", d, got, want)
		}
	}
}

func TestFeaturesMatchReference(t *testing.T) {
	docs := identityDocs()
	queries := []string{"unseen words T0001 here", "ΣΊΣΥΦΟΣ new", "", "x x y x z"}
	for _, name := range builtins {
		t.Run(name, func(t *testing.T) { checkIdentity(t, name, docs, append(queries, docs[:20]...)) })
	}
}

var sink vector.Vector

// TestComputeFeatureAllocs pins the featurization kernel: an ASCII
// title costs the result's Idx and Val and nothing else.
func TestComputeFeatureAllocs(t *testing.T) {
	docs := identityDocs()
	title := "t0012 t0140 t0007 t0291 t0033 t0140"
	for _, name := range builtins {
		f, err := NewRegistry().New(name)
		if err != nil {
			t.Fatal(err)
		}
		f.ComputeStats(append(docs, title))
		if n := testing.AllocsPerRun(100, func() { sink = f.ComputeFeature(title) }); n > 2 {
			t.Errorf("%s: %v allocations per ComputeFeature of an ASCII title, want ≤ 2", name, n)
		}
	}
}

func BenchmarkComputeFeature(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	docs := make([]string, 1000)
	for i := range docs {
		docs[i] = hazyloadTitle(r)
	}
	for _, name := range builtins {
		b.Run(name, func(b *testing.B) {
			f, err := NewRegistry().New(name)
			if err != nil {
				b.Fatal(err)
			}
			f.ComputeStats(docs)
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				sink = f.ComputeFeature(docs[i%len(docs)])
				i++
			}
		})
	}
}

// goldenLiterals seeds the fuzz targets with testdata/golden.sql's
// string literals.
func goldenLiterals(f *testing.F) []string {
	b, err := os.ReadFile("../../testdata/golden.sql")
	if err != nil {
		f.Fatal(err)
	}
	var lits []string
	for _, m := range regexp.MustCompile(`'([^']*)'`).FindAllStringSubmatch(string(b), -1) {
		lits = append(lits, m[1])
	}
	return lits
}

func FuzzTokenize(f *testing.F) {
	for _, s := range goldenLiterals(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := Tokenize(s), refTokenize(s); !slices.Equal(got, want) {
			t.Fatalf("Tokenize(%q) = %q, reference %q", s, got, want)
		}
	})
}

func FuzzComputeFeature(f *testing.F) {
	lits := goldenLiterals(f)
	for _, s := range lits {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		for _, name := range builtins {
			checkIdentity(t, name, lits, []string{doc})
			checkIdentity(t, name, append(slices.Clip(lits), doc), []string{doc})
		}
	})
}
