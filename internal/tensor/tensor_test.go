package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAxpyDotScale(t *testing.T) {
	y := Vec{1, 2, 3}
	x := Vec{4, 5, 6}
	Axpy(y, 2, x)
	want := Vec{9, 12, 15}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("Axpy[%d] = %v, want %v", i, y[i], want[i])
		}
	}
	if got := Dot(x, x); got != 16+25+36 {
		t.Errorf("Dot = %v", got)
	}
	Scale(y, 0)
	if Norm2(y) != 0 {
		t.Errorf("Scale to zero failed: %v", y)
	}
}

func TestAxpyLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Axpy(Vec{1}, 1, Vec{1, 2})
}

func TestQuickDotSymmetric(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := int(n%32) + 1
		a, b := NewVec(m), NewVec(m)
		RandNormal(a, 1, rng)
		RandNormal(b, 1, rng)
		return almostEq(Dot(a, b), Dot(b, a), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickNorm2CauchySchwarz(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := int(n%32) + 1
		a, b := NewVec(m), NewVec(m)
		RandNormal(a, 2, rng)
		RandNormal(b, 2, rng)
		return math.Abs(Dot(a, b)) <= Norm2(a)*Norm2(b)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClipNorm(t *testing.T) {
	v := Vec{3, 4} // norm 5
	if ClipNorm(v, 10) {
		t.Error("should not clip below threshold")
	}
	if !ClipNorm(v, 1) {
		t.Error("should clip above threshold")
	}
	if !almostEq(Norm2(v), 1, 1e-12) {
		t.Errorf("clipped norm = %v, want 1", Norm2(v))
	}
	if ClipNorm(v, 0) {
		t.Error("maxNorm <= 0 must be a no-op")
	}
}

func TestHasNaN(t *testing.T) {
	if HasNaN(Vec{1, 2, 3}) {
		t.Error("false positive")
	}
	if !HasNaN(Vec{1, math.NaN()}) {
		t.Error("missed NaN")
	}
	if !HasNaN(Vec{math.Inf(1)}) {
		t.Error("missed Inf")
	}
}

// affineRef is the plain per-row dot product Affine2 must reproduce bit for
// bit: one sum from +0 in ascending column order, bias added last.
func affineRef(m Mat, x Vec) Vec {
	n := len(x)
	out := NewVec(m.Rows)
	for r := range out {
		row := m.Row(r)
		var z float64
		for d, xv := range x {
			z += row[d] * xv
		}
		out[r] = z + row[n]
	}
	return out
}

func TestAffine2SmallExample(t *testing.T) {
	m := MatOver(2, 3, Vec{1, 2, 3, 4, 5, 6})
	oa, ob := NewVec(2), NewVec(2)
	Affine2(m, Vec{1, -1}, Vec{0, 2}, oa, ob)
	if oa[0] != 2 || oa[1] != 5 || ob[0] != 7 || ob[1] != 16 {
		t.Errorf("Affine2 = %v, %v", oa, ob)
	}
}

// TestAffine2BitIdentical covers the four-row tile, the remainder rows
// (rows not a multiple of four, fewer than four rows) and the single-input
// path, against affineRef with exact float64 bit comparison.
func TestAffine2BitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, shape := range [][2]int{{1, 1}, {3, 5}, {4, 1}, {7, 9}, {10, 33}, {96, 64}, {13, 96}} {
		rows, n := shape[0], shape[1]
		m := MatOver(rows, n+1, NewVec(rows*(n+1)))
		RandNormal(m.V, 1, rng)
		xa, xb := NewVec(n), NewVec(n)
		RandNormal(xa, 3, rng)
		RandNormal(xb, 3, rng)
		wantA, wantB := affineRef(m, xa), affineRef(m, xb)

		oa, ob := NewVec(rows), NewVec(rows)
		Affine2(m, xa, xb, oa, ob)
		single := NewVec(rows)
		Affine2(m, xb, nil, single, nil)
		for r := 0; r < rows; r++ {
			if math.Float64bits(oa[r]) != math.Float64bits(wantA[r]) ||
				math.Float64bits(ob[r]) != math.Float64bits(wantB[r]) {
				t.Fatalf("%dx%d row %d: pair (%v, %v), want (%v, %v)", rows, n, r, oa[r], ob[r], wantA[r], wantB[r])
			}
			if math.Float64bits(single[r]) != math.Float64bits(wantB[r]) {
				t.Fatalf("%dx%d row %d: single %v, want %v", rows, n, r, single[r], wantB[r])
			}
		}
	}
}

func TestAffine2PanicsOnBadDims(t *testing.T) {
	m := MatOver(2, 3, NewVec(6))
	for name, call := range map[string]func(){
		"cols":     func() { Affine2(m, NewVec(3), nil, NewVec(2), nil) },
		"out":      func() { Affine2(m, NewVec(2), nil, NewVec(3), nil) },
		"xb len":   func() { Affine2(m, NewVec(2), NewVec(1), NewVec(2), NewVec(2)) },
		"ob len":   func() { Affine2(m, NewVec(2), NewVec(2), NewVec(2), NewVec(1)) },
		"ob no xb": func() { Affine2(m, NewVec(2), nil, NewVec(2), NewVec(2)) },
		"xb no ob": func() { Affine2(m, NewVec(2), NewVec(2), NewVec(2), nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			call()
		}()
	}
}

func TestSoftmax(t *testing.T) {
	v := Vec{1, 2, 3}
	out := NewVec(3)
	Softmax(v, out)
	var sum float64
	for _, p := range out {
		if p <= 0 || p >= 1 {
			t.Errorf("softmax out of range: %v", out)
		}
		sum += p
	}
	if !almostEq(sum, 1, 1e-12) {
		t.Errorf("softmax sums to %v", sum)
	}
	if !(out[2] > out[1] && out[1] > out[0]) {
		t.Errorf("softmax not monotone: %v", out)
	}
}

func TestSoftmaxStability(t *testing.T) {
	v := Vec{1000, 1001, 999}
	out := NewVec(3)
	Softmax(v, out)
	if HasNaN(out) {
		t.Fatalf("softmax overflowed: %v", out)
	}
}

func TestLogSumExp(t *testing.T) {
	if got := LogSumExp(Vec{0, 0}); !almostEq(got, math.Log(2), 1e-12) {
		t.Errorf("LogSumExp = %v", got)
	}
	if got := LogSumExp(Vec{}); !math.IsInf(got, -1) {
		t.Errorf("empty LogSumExp = %v", got)
	}
}

func TestArgmaxRelu(t *testing.T) {
	if Argmax(Vec{}) != -1 {
		t.Error("empty Argmax should be -1")
	}
	if Argmax(Vec{1, 5, 3}) != 1 {
		t.Error("Argmax wrong")
	}
	v := Vec{-1, 2, -3}
	Relu(v, v)
	if v[0] != 0 || v[1] != 2 || v[2] != 0 {
		t.Errorf("Relu = %v", v)
	}
}

func TestMaxAbs(t *testing.T) {
	if MaxAbs(Vec{}) != 0 {
		t.Error("empty MaxAbs")
	}
	if MaxAbs(Vec{-5, 3}) != 5 {
		t.Error("MaxAbs wrong")
	}
}

func TestMatOverPanicsOnBadLen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MatOver(2, 2, Vec{1, 2, 3})
}
