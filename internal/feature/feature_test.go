package feature

import (
	"math"
	"math/rand"
	"testing"

	"hazy/internal/vector"
)

func TestTokenize(t *testing.T) {
	got := Tokenize("Hello, World! SQL-99 & DBMSs")
	want := []string{"hello", "world", "sql", "99", "dbmss"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	if toks := Tokenize(""); len(toks) != 0 {
		t.Fatalf("empty string: %v", toks)
	}
	if toks := Tokenize("---"); len(toks) != 0 {
		t.Fatalf("punct only: %v", toks)
	}
}

func TestVocabAssignAndFreeze(t *testing.T) {
	v := NewVocab()
	a := v.Lookup("alpha")
	b := v.Lookup("beta")
	if a == b {
		t.Fatal("same index for different terms")
	}
	if v.Lookup("alpha") != a {
		t.Fatal("unstable index")
	}
	if v.Size() != 2 {
		t.Fatalf("size=%d", v.Size())
	}
	if v.Term(a) != "alpha" || v.Term(99) != "" {
		t.Fatal("Term lookup wrong")
	}
	v.Freeze()
	if v.Lookup("gamma") != -1 {
		t.Fatal("frozen vocab grew")
	}
	if v.Lookup("alpha") != a {
		t.Fatal("frozen vocab lost existing term")
	}
}

func TestTFBagOfWords(t *testing.T) {
	f := NewTFBagOfWords()
	f.ComputeStatsInc("data base data")
	v := f.ComputeFeature("data base data")
	if v.NNZ() != 2 {
		t.Fatalf("nnz=%d", v.NNZ())
	}
	// tf normalized: data 2/3, base 1/3.
	di := f.Vocab.Lookup("data")
	bi := f.Vocab.Lookup("base")
	if math.Abs(v.At(int(di))-2.0/3) > 1e-12 || math.Abs(v.At(int(bi))-1.0/3) > 1e-12 {
		t.Fatalf("tf wrong: %v", v)
	}
	if math.Abs(v.Norm(1)-1) > 1e-12 {
		t.Fatal("not l1-normalized")
	}
}

func TestTFIDFDownweightsCommonTerms(t *testing.T) {
	f := NewTFIDF()
	corpus := []string{
		"the database system",
		"the operating system",
		"the network stack",
		"the database index",
	}
	f.ComputeStats(corpus)
	if f.DocCount() != 4 {
		t.Fatalf("docs=%d", f.DocCount())
	}
	v := f.ComputeFeature("the database")
	theI := int(f.Vocab.Lookup("the"))
	dbI := int(f.Vocab.Lookup("database"))
	if v.At(theI) >= v.At(dbI) {
		t.Fatalf("'the' (df=4) should weigh less than 'database' (df=2): %v vs %v",
			v.At(theI), v.At(dbI))
	}
}

func TestTFIDFIncrementalEqualsBatch(t *testing.T) {
	corpus := []string{"a b c", "a b", "a d e", "f g a"}
	batch := NewTFIDF()
	batch.ComputeStats(corpus)
	inc := NewTFIDF()
	for _, d := range corpus {
		inc.ComputeStatsInc(d)
	}
	for _, doc := range []string{"a b", "d f", "c c c g"} {
		vb := batch.ComputeFeature(doc)
		vi := inc.ComputeFeature(doc)
		// Vocab index assignment order can differ; compare term weights.
		for _, term := range Tokenize(doc) {
			wb := vb.At(int(batch.Vocab.Lookup(term)))
			wi := vi.At(int(inc.Vocab.Lookup(term)))
			if math.Abs(wb-wi) > 1e-12 {
				t.Fatalf("term %q: batch %v inc %v", term, wb, wi)
			}
		}
	}
}

func TestTFICFStatsFrozen(t *testing.T) {
	f := NewTFICF()
	f.ComputeStats([]string{"rare word here", "common common common"})
	before := f.ComputeFeature("rare common")
	f.ComputeStatsInc("rare rare rare rare") // must be a no-op
	after := f.ComputeFeature("rare common")
	if !vector.Equal(before, after) {
		t.Fatal("TF-ICF stats changed after ComputeStatsInc")
	}
	ri := int(f.Vocab.Lookup("rare"))
	ci := int(f.Vocab.Lookup("common"))
	if before.At(ri) <= before.At(ci) {
		t.Fatal("rare term should outweigh common term")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	names := r.Names()
	if len(names) != 3 {
		t.Fatalf("names=%v", names)
	}
	f, err := r.New("tf_bag_of_words")
	if err != nil || f.Name() != "tf_bag_of_words" {
		t.Fatalf("New: %v %v", f, err)
	}
	if _, err := r.New("bogus"); err == nil {
		t.Fatal("unknown name accepted")
	}
	r.Register("custom", func() Func { return NewTFICF() })
	if _, err := r.New("custom"); err != nil {
		t.Fatal(err)
	}
}

// Property (App. B.5.3): z(x)·z(y) ≈ K(x,y) within ε for the Gaussian
// kernel, with the approximation improving in D.
func TestRFFApproximatesGaussianKernel(t *testing.T) {
	const dim, gamma = 5, 0.5
	r := rand.New(rand.NewSource(31))
	f := NewRFF(Gaussian, dim, 2048, gamma, 7)
	var maxErr float64
	for trial := 0; trial < 100; trial++ {
		x := make([]float64, dim)
		y := make([]float64, dim)
		for i := 0; i < dim; i++ {
			x[i] = r.Float64()
			y[i] = r.Float64()
		}
		xv, yv := vector.NewDense(x), vector.NewDense(y)
		approx := vector.Dot(f.Transform(xv).Val, f.Transform(yv))
		exact := GaussianKernel(xv, yv, gamma)
		if e := math.Abs(approx - exact); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 0.12 {
		t.Fatalf("max kernel error %v with D=2048", maxErr)
	}
}

func TestRFFLaplacianRoughApproximation(t *testing.T) {
	const dim, gamma = 3, 0.3
	r := rand.New(rand.NewSource(5))
	f := NewRFF(Laplacian, dim, 4096, gamma, 9)
	var sumErr float64
	const trials = 50
	for trial := 0; trial < trials; trial++ {
		x := make([]float64, dim)
		y := make([]float64, dim)
		for i := 0; i < dim; i++ {
			x[i] = r.Float64()
			y[i] = r.Float64()
		}
		xv, yv := vector.NewDense(x), vector.NewDense(y)
		approx := vector.Dot(f.Transform(xv).Val, f.Transform(yv))
		exact := LaplacianKernel(xv, yv, gamma)
		sumErr += math.Abs(approx - exact)
	}
	if avg := sumErr / trials; avg > 0.08 {
		t.Fatalf("avg laplacian kernel error %v", avg)
	}
}

func TestRFFDeterministicInSeed(t *testing.T) {
	a := NewRFF(Gaussian, 4, 64, 1, 42)
	b := NewRFF(Gaussian, 4, 64, 1, 42)
	x := vector.NewDense([]float64{1, 2, 3, 4})
	if !vector.Equal(a.Transform(x), b.Transform(x)) {
		t.Fatal("same seed, different transform")
	}
	c := NewRFF(Gaussian, 4, 64, 1, 43)
	if vector.Equal(a.Transform(x), c.Transform(x)) {
		t.Fatal("different seed, same transform")
	}
	if a.OutputDim() != 64 {
		t.Fatalf("D=%d", a.OutputDim())
	}
}
