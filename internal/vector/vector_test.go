package vector

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestDenseBasics(t *testing.T) {
	v := NewDense([]float64{1, -2, 3})
	if !v.IsDense() {
		t.Fatal("expected dense")
	}
	if v.Dim() != 3 || v.NNZ() != 3 {
		t.Fatalf("Dim=%d NNZ=%d", v.Dim(), v.NNZ())
	}
	if v.At(1) != -2 || v.At(5) != 0 {
		t.Fatalf("At wrong: %v %v", v.At(1), v.At(5))
	}
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSparseBasics(t *testing.T) {
	v := NewSparse([]int32{2, 7, 9}, []float64{0.5, -1, 2})
	if v.IsDense() {
		t.Fatal("expected sparse")
	}
	if v.Dim() != 10 {
		t.Fatalf("Dim=%d want 10", v.Dim())
	}
	if v.At(7) != -1 || v.At(3) != 0 {
		t.Fatalf("At wrong")
	}
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsUnsorted(t *testing.T) {
	v := NewSparse([]int32{5, 3}, []float64{1, 2})
	if err := v.Validate(); err != ErrUnsorted {
		t.Fatalf("want ErrUnsorted, got %v", err)
	}
	v = NewSparse([]int32{3, 3}, []float64{1, 2})
	if err := v.Validate(); err != ErrUnsorted {
		t.Fatalf("duplicate index: want ErrUnsorted, got %v", err)
	}
	v = NewSparse([]int32{1}, []float64{1, 2})
	if err := v.Validate(); err == nil {
		t.Fatal("length mismatch not caught")
	}
}

func TestFromMap(t *testing.T) {
	v := FromMap(map[int32]float64{4: 2, 1: -1, 9: 0})
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	if v.NNZ() != 2 {
		t.Fatalf("explicit zero kept: NNZ=%d", v.NNZ())
	}
	if v.At(1) != -1 || v.At(4) != 2 || v.At(9) != 0 {
		t.Fatalf("bad contents %v", v)
	}
}

func TestDotSparseDense(t *testing.T) {
	w := []float64{1, 2, 3, 4}
	s := NewSparse([]int32{0, 3}, []float64{2, -1})
	if got := Dot(w, s); got != 2*1-1*4 {
		t.Fatalf("sparse dot=%v", got)
	}
	d := NewDense([]float64{1, 1, 1, 1})
	if got := Dot(w, d); got != 10 {
		t.Fatalf("dense dot=%v", got)
	}
	// Components beyond len(w) contribute 0.
	s2 := NewSparse([]int32{2, 100}, []float64{1, 99})
	if got := Dot(w, s2); got != 3 {
		t.Fatalf("oob dot=%v", got)
	}
}

func TestAxpyGrows(t *testing.T) {
	w := []float64{1, 1}
	w = Axpy(w, 2, NewSparse([]int32{1, 4}, []float64{1, 3}))
	want := []float64{1, 3, 0, 0, 6}
	if len(w) != len(want) {
		t.Fatalf("len=%d", len(w))
	}
	for i := range want {
		if w[i] != want[i] {
			t.Fatalf("w=%v want %v", w, want)
		}
	}
	w2 := Axpy([]float64{0, 0, 0}, -1, NewDense([]float64{1, 2, 3}))
	if w2[2] != -3 {
		t.Fatalf("dense axpy %v", w2)
	}
}

func TestNorms(t *testing.T) {
	v := NewDense([]float64{3, -4})
	if v.Norm(2) != 5 {
		t.Fatalf("l2=%v", v.Norm(2))
	}
	if v.Norm(1) != 7 {
		t.Fatalf("l1=%v", v.Norm(1))
	}
	if v.Norm(math.Inf(1)) != 4 {
		t.Fatalf("linf=%v", v.Norm(math.Inf(1)))
	}
	if got := v.Norm(3); !almostEqual(got, math.Pow(27+64, 1.0/3), 1e-12) {
		t.Fatalf("l3=%v", got)
	}
}

func TestHolderConjugate(t *testing.T) {
	if !math.IsInf(HolderConjugate(1), 1) {
		t.Fatal("conj(1) != inf")
	}
	if HolderConjugate(math.Inf(1)) != 1 {
		t.Fatal("conj(inf) != 1")
	}
	if HolderConjugate(2) != 2 {
		t.Fatal("conj(2) != 2")
	}
	q := HolderConjugate(4)
	if !almostEqual(1.0/4+1.0/q, 1, 1e-12) {
		t.Fatalf("conj(4)=%v", q)
	}
}

func TestNormalize(t *testing.T) {
	v := NewDense([]float64{2, 2})
	v.L1Normalize()
	if !almostEqual(v.Norm(1), 1, 1e-12) {
		t.Fatalf("l1 normalize: %v", v)
	}
	v2 := NewDense([]float64{3, 4})
	v2.L2Normalize()
	if !almostEqual(v2.Norm(2), 1, 1e-12) {
		t.Fatalf("l2 normalize: %v", v2)
	}
	z := NewDense([]float64{0, 0})
	z.L1Normalize() // must not NaN
	if z.Val[0] != 0 {
		t.Fatal("zero vector normalize changed values")
	}
}

func TestDiffNormUnequalLengths(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{1, 2}
	if got := DiffNorm(a, b, 2); got != 3 {
		t.Fatalf("diff=%v", got)
	}
	if got := DiffNorm(b, a, 1); got != 3 {
		t.Fatalf("diff=%v", got)
	}
}

func TestMaxNorm(t *testing.T) {
	vs := []Vector{
		NewDense([]float64{1, 1}),
		NewSparse([]int32{0}, []float64{-5}),
	}
	if got := MaxNorm(vs, 1); got != 5 {
		t.Fatalf("M=%v", got)
	}
}

func TestEqualRepresentationIndependent(t *testing.T) {
	a := NewDense([]float64{0, 2, 0, 3})
	b := NewSparse([]int32{1, 3}, []float64{2, 3})
	if !Equal(a, b) {
		t.Fatal("a != b")
	}
	c := NewSparse([]int32{1}, []float64{2})
	if Equal(a, c) {
		t.Fatal("a == c")
	}
}

func TestString(t *testing.T) {
	if s := NewSparse([]int32{3}, []float64{0.5}).String(); s != "(3:0.5)" {
		t.Fatalf("sparse string %q", s)
	}
	if s := NewDense([]float64{1, 2}).String(); s != "[1 2]" {
		t.Fatalf("dense string %q", s)
	}
}

func randomSparse(r *rand.Rand, dim, nnz int) Vector {
	m := map[int32]float64{}
	for len(m) < nnz {
		m[int32(r.Intn(dim))] = r.NormFloat64()
	}
	return FromMap(m)
}

// Property: Hölder's inequality |⟨w,v⟩| ≤ ‖w‖_p ‖v‖_q for conjugate
// pairs — the foundation of Lemma 3.1.
func TestHolderInequalityProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	pairs := [][2]float64{{1, math.Inf(1)}, {2, 2}, {math.Inf(1), 1}, {1.5, 3}}
	for trial := 0; trial < 500; trial++ {
		dim := 1 + r.Intn(40)
		w := make([]float64, dim)
		for i := range w {
			w[i] = r.NormFloat64()
		}
		v := randomSparse(r, dim, 1+r.Intn(dim))
		dot := math.Abs(Dot(w, v))
		for _, pq := range pairs {
			bound := NormDense(w, pq[0]) * v.Norm(pq[1])
			if dot > bound+1e-9 {
				t.Fatalf("Hölder violated: |dot|=%v > %v (p=%v q=%v) w=%v v=%v",
					dot, bound, pq[0], pq[1], w, v)
			}
		}
	}
}

// Property: Dot(w, v) computed sparse equals the dense expansion.
func TestDotSparseDenseAgreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 1 + r.Intn(30)
		w := make([]float64, dim)
		for i := range w {
			w[i] = r.NormFloat64()
		}
		sv := randomSparse(r, dim, 1+r.Intn(dim))
		dense := make([]float64, dim)
		for k, i := range sv.Idx {
			dense[i] = sv.Val[k]
		}
		return almostEqual(Dot(w, sv), Dot(w, NewDense(dense)), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: encode/decode round-trips exactly.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(seed int64, dense bool) bool {
		r := rand.New(rand.NewSource(seed))
		var v Vector
		if dense {
			vals := make([]float64, r.Intn(50))
			for i := range vals {
				vals[i] = r.NormFloat64()
			}
			v = NewDense(vals)
		} else {
			v = randomSparse(r, 1000, r.Intn(50)+1)
		}
		buf := v.Encode(nil)
		if len(buf) != v.EncodedSize() {
			return false
		}
		got, n, err := Decode(buf)
		if err != nil || n != len(buf) {
			return false
		}
		if got.IsDense() != v.IsDense() {
			return false
		}
		return Equal(got, v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := Decode(nil); err == nil {
		t.Fatal("nil buffer accepted")
	}
	if _, _, err := Decode([]byte{9, 0, 0, 0, 0}); err == nil {
		t.Fatal("bad tag accepted")
	}
	v := NewSparse([]int32{1, 2}, []float64{1, 2})
	buf := v.Encode(nil)
	if _, _, err := Decode(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated body accepted")
	}
	d := NewDense([]float64{1, 2, 3})
	dbuf := d.Encode(nil)
	if _, _, err := Decode(dbuf[:6]); err == nil {
		t.Fatal("truncated dense body accepted")
	}
}

func TestDecodeConsumesPrefixOnly(t *testing.T) {
	v := NewSparse([]int32{0, 5}, []float64{1, -1})
	buf := v.Encode(nil)
	buf = append(buf, 0xAB, 0xCD)
	got, n, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf)-2 {
		t.Fatalf("consumed %d of %d", n, len(buf))
	}
	if !Equal(got, v) {
		t.Fatal("mismatch")
	}
}

// TestDecodeIntoReuses decodes a mixed sequence into one scratch and
// checks each result against Decode, that a row no larger than the
// largest before it allocates nothing, that a sparse vector with no
// components keeps a non-nil Idx (nil marks dense), and that a failed
// decode leaves the scratch as it was.
func TestDecodeIntoReuses(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	vs := []Vector{
		randomSparse(r, 1000, 40),
		NewDense([]float64{1, 2, 3}),
		randomSparse(r, 1000, 7),
		NewSparse([]int32{}, []float64{}),
		NewDense([]float64{}),
		randomSparse(r, 1000, 40),
	}
	var dst Vector
	for i, v := range vs {
		buf := v.Encode(nil)
		n, err := DecodeInto(&dst, buf)
		if err != nil || n != len(buf) {
			t.Fatalf("vector %d: consumed %d of %d: %v", i, n, len(buf), err)
		}
		if dst.IsDense() != v.IsDense() || !Equal(dst, v) {
			t.Fatalf("vector %d: decoded %v, want %v", i, dst, v)
		}
	}
	sparse := randomSparse(r, 1000, 30).Encode(nil)
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeInto(&dst, sparse); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("DecodeInto into a large enough scratch allocates %v times", allocs)
	}
	before := dst
	if _, err := DecodeInto(&dst, sparse[:len(sparse)-1]); err == nil {
		t.Fatal("truncated body accepted")
	}
	if &dst.Val[0] != &before.Val[0] || len(dst.Val) != len(before.Val) {
		t.Fatal("a failed decode changed the scratch")
	}
}

func TestCloneIndependent(t *testing.T) {
	v := NewSparse([]int32{1}, []float64{5})
	c := v.Clone()
	c.Val[0] = 7
	if v.Val[0] != 5 {
		t.Fatal("clone aliases original")
	}
}

func TestScale(t *testing.T) {
	v := NewDense([]float64{1, -2})
	v.Scale(3)
	if v.Val[0] != 3 || v.Val[1] != -6 {
		t.Fatalf("scale: %v", v)
	}
}
