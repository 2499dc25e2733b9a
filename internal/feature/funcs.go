package feature

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"hazy/internal/vector"
)

// Func is a feature function in the paper's three-phase form
// (App. A.2): ComputeStats makes a pass over the corpus,
// ComputeStatsInc folds one new document into the statistics, and
// ComputeFeature maps a document to its feature vector using the
// current statistics.
type Func interface {
	Name() string
	ComputeStats(corpus []string)
	ComputeStatsInc(doc string)
	ComputeFeature(doc string) vector.Vector
}

// docTokens sizes the stack buffers of a one-document pass; a longer
// document spills to the heap.
const docTokens = 64

// addDoc appends the vocabulary index of each of doc's tokens to dst,
// assigning indices to new terms (see Vocab.add).
func (v *Vocab) addDoc(dst []int32, doc string) []int32 {
	var toks [docTokens]string
	return v.add(dst, appendTokens(toks[:0], doc))
}

// featurize returns doc's ℓ1-normalized weighted term frequencies: a
// term that occurs c times gets c*weight(i), explicit zeros are dropped
// and Idx is sorted, as vector.FromMap gives them. Counts come from
// sorting the document's term indices and counting runs, so the only
// allocations are the result's Idx and Val.
//
// The vocabulary is only read. A term it lacks gets no component but,
// unless the vocabulary is frozen, still counts towards the 1-norm with
// weight(-1), after the known terms and in order of first appearance:
// where ComputeStatsInc(doc) would have given it an index. So every
// component is bit-identical to the one computed after
// ComputeStatsInc(doc), and so is w*f for any model w, which has only
// seen assigned terms.
func featurize(v *Vocab, doc string, weight func(i int32) float64) vector.Vector {
	var tokBuf [docTokens]string
	var idxBuf [docTokens]int32
	var valBuf [docTokens]float64
	toks := appendTokens(tokBuf[:0], doc)
	idx, frozen := v.find(idxBuf[:0], toks)
	known, unknown := idx[:0], toks[:0] // compacted in place
	for k, i := range idx {
		switch {
		case i >= 0:
			known = append(known, i)
		case !frozen:
			unknown = append(unknown, toks[k])
		}
	}
	slices.Sort(known)
	terms, vals := known[:0], valBuf[:0]
	for k := 0; k < len(known); {
		i, c := known[k], 1
		for k+c < len(known) && known[k+c] == i {
			c++
		}
		k += c
		if x := float64(c) * weight(i); x != 0 {
			terms = append(terms, i)
			vals = append(vals, x)
		}
	}
	var norm float64
	for _, x := range vals {
		norm += math.Abs(x)
	}
	for _, c := range firstSeenCounts(unknown) {
		norm += math.Abs(float64(c) * weight(-1))
	}
	f := vector.Vector{Idx: make([]int32, len(terms)), Val: make([]float64, len(vals))}
	copy(f.Idx, terms)
	copy(f.Val, vals)
	if norm > 0 {
		f.Scale(1 / norm)
	}
	return f
}

// firstSeenCounts returns how often each distinct term of toks occurs,
// in order of first appearance.
func firstSeenCounts(toks []string) []int {
	if len(toks) == 0 {
		return nil
	}
	at := make(map[string]int, len(toks))
	var counts []int
	for _, t := range toks {
		k, ok := at[t]
		if !ok {
			k = len(counts)
			at[t] = k
			counts = append(counts, 0)
		}
		counts[k]++
	}
	return counts
}

// countAt is counts[i], or 0 for -1 (an unknown term) or an index past
// the counts (a term no statistics have seen).
func countAt(counts []int, i int32) int {
	if i < 0 || int(i) >= len(counts) {
		return 0
	}
	return counts[i]
}

// bump increments counts[i], growing counts to cover i.
func bump(counts []int, i int32) []int {
	if n := int(i) + 1; n > len(counts) {
		counts = append(counts, make([]int, n-len(counts))...)
	}
	counts[i]++
	return counts
}

// TFBagOfWords is tf_bag_of_words: ℓ1-normalized term frequencies.
// It needs no corpus statistics (App. A.2).
type TFBagOfWords struct {
	Vocab *Vocab
}

// NewTFBagOfWords returns the feature function over a fresh vocabulary.
func NewTFBagOfWords() *TFBagOfWords { return &TFBagOfWords{Vocab: NewVocab()} }

// Name returns "tf_bag_of_words".
func (f *TFBagOfWords) Name() string { return "tf_bag_of_words" }

// ComputeStats only warms the vocabulary (no statistics needed).
func (f *TFBagOfWords) ComputeStats(corpus []string) {
	for _, d := range corpus {
		f.ComputeStatsInc(d)
	}
}

// ComputeStatsInc is a no-op beyond vocabulary growth.
func (f *TFBagOfWords) ComputeStatsInc(doc string) {
	var idx [docTokens]int32
	f.Vocab.addDoc(idx[:0], doc)
}

// ComputeFeature returns the ℓ1-normalized term-frequency vector.
func (f *TFBagOfWords) ComputeFeature(doc string) vector.Vector {
	return featurize(f.Vocab, doc, func(int32) float64 { return 1 })
}

// TFIDF is tf_idf_bag_of_words: tf·idf scores with document
// frequencies maintained incrementally by ComputeStatsInc, mirroring
// the catalog-table flow described in App. A.2.
type TFIDF struct {
	Vocab *Vocab

	mu   sync.RWMutex
	df   []int // by term index
	docs int
}

// NewTFIDF returns the feature function with empty statistics.
func NewTFIDF() *TFIDF { return &TFIDF{Vocab: NewVocab()} }

// Name returns "tf_idf_bag_of_words".
func (f *TFIDF) Name() string { return "tf_idf_bag_of_words" }

// ComputeStats computes document frequencies over the corpus.
func (f *TFIDF) ComputeStats(corpus []string) {
	for _, d := range corpus {
		f.ComputeStatsInc(d)
	}
}

// ComputeStatsInc folds one document into the df counts.
func (f *TFIDF) ComputeStatsInc(doc string) {
	var buf [docTokens]int32
	idx := f.Vocab.addDoc(buf[:0], doc)
	slices.Sort(idx)
	idx = slices.Compact(idx)
	f.mu.Lock()
	f.docs++
	for _, i := range idx {
		if i >= 0 {
			f.df = bump(f.df, i)
		}
	}
	f.mu.Unlock()
}

// DocCount returns the number of documents folded into the statistics.
func (f *TFIDF) DocCount() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.docs
}

// ComputeFeature returns the ℓ1-normalized tf·idf vector. idf uses
// the smoothed form log((1+N)/(1+df)).
func (f *TFIDF) ComputeFeature(doc string) vector.Vector {
	f.mu.RLock()
	defer f.mu.RUnlock()
	n := float64(1 + f.docs)
	return featurize(f.Vocab, doc, func(i int32) float64 {
		return math.Log(n / float64(1+countAt(f.df, i)))
	})
}

// TFICF is tf_icf (term frequency–inverse corpus frequency, [31] in
// the paper): corpus frequencies are fixed by ComputeStats and
// explicitly NOT updated per new document.
type TFICF struct {
	Vocab *Vocab
	cf    []int // by term index
	total int
}

// NewTFICF returns the feature function with empty statistics.
func NewTFICF() *TFICF { return &TFICF{Vocab: NewVocab()} }

// Name returns "tf_icf".
func (f *TFICF) Name() string { return "tf_icf" }

// ComputeStats fixes corpus term frequencies.
func (f *TFICF) ComputeStats(corpus []string) {
	var buf [docTokens]int32
	for _, d := range corpus {
		for _, i := range f.Vocab.addDoc(buf[:0], d) {
			if i >= 0 {
				f.cf = bump(f.cf, i)
			}
			f.total++
		}
	}
}

// ComputeStatsInc only grows the vocabulary: TF-ICF deliberately does
// not update corpus frequencies after the initial pass.
func (f *TFICF) ComputeStatsInc(doc string) {
	var buf [docTokens]int32
	f.Vocab.addDoc(buf[:0], doc)
}

// ComputeFeature returns the ℓ1-normalized tf·icf vector.
func (f *TFICF) ComputeFeature(doc string) vector.Vector {
	n := float64(1 + f.total)
	return featurize(f.Vocab, doc, func(i int32) float64 {
		return math.Log(n / float64(1+countAt(f.cf, i)))
	})
}

// Registry holds named feature-function constructors, mirroring
// Hazy's registration of feature functions (App. A.2: "the
// administrator writes a library of these feature functions").
type Registry struct {
	mu    sync.RWMutex
	ctors map[string]func() Func
}

// NewRegistry returns a registry preloaded with the built-in
// functions.
func NewRegistry() *Registry {
	r := &Registry{ctors: map[string]func() Func{}}
	r.Register("tf_bag_of_words", func() Func { return NewTFBagOfWords() })
	r.Register("tf_idf_bag_of_words", func() Func { return NewTFIDF() })
	r.Register("tf_icf", func() Func { return NewTFICF() })
	return r
}

// Register adds (or replaces) a named constructor.
func (r *Registry) Register(name string, ctor func() Func) {
	r.mu.Lock()
	r.ctors[name] = ctor
	r.mu.Unlock()
}

// Has reports whether a constructor is registered under name.
func (r *Registry) Has(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.ctors[name]
	return ok
}

// New instantiates the named feature function.
func (r *Registry) New(name string) (Func, error) {
	r.mu.RLock()
	ctor, ok := r.ctors[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("feature: unknown feature function %q (have %v)", name, r.Names())
	}
	return ctor(), nil
}

// Names lists the registered function names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.ctors))
	for n := range r.ctors {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
