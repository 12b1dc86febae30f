package tensor

import (
	"fmt"
	"math"
)

// Mat is a dense row-major matrix view over a flat buffer. The buffer is
// typically a slice of a larger parameter vector so that matrices can live
// inside a sharded parameter store without copying.
type Mat struct {
	Rows, Cols int
	V          Vec // len == Rows*Cols, row-major
}

// MatOver wraps an existing buffer as a Rows x Cols matrix. It panics when
// the buffer length does not match.
func MatOver(rows, cols int, v Vec) Mat {
	if len(v) != rows*cols {
		panic(fmt.Sprintf("tensor: MatOver buffer %d != %dx%d", len(v), rows, cols))
	}
	return Mat{Rows: rows, Cols: cols, V: v}
}

// Row returns row i as a subslice (no copy).
func (m Mat) Row(i int) Vec {
	return m.V[i*m.Cols : (i+1)*m.Cols]
}

// Affine2 computes the affine map of two inputs through the same matrix:
// oa[r] = dot(M.Row(r)[:n], xa) + M.Row(r)[n] and likewise ob from xb, where
// n = len(xa) and M has n+1 columns (the last holds the bias). A nil xb (with
// a nil ob) maps xa alone, for the odd sample at the end of a batch.
//
// Rows go four at a time with both inputs, so the inner loop carries eight
// independent sums and runs at floating-point throughput rather than add
// latency. Each output is one sum from +0 in ascending column order,
// acc += w*x, with the bias added last: every result is bit-identical to
// the plain per-row dot product.
func Affine2(m Mat, xa, xb, oa, ob Vec) {
	n := len(xa)
	if m.Cols != n+1 || len(oa) != m.Rows || (xb == nil) != (ob == nil) ||
		(xb != nil && (len(xb) != n || len(ob) != m.Rows)) {
		panic(fmt.Sprintf("tensor: Affine2 dims %dx%d with inputs %d,%d -> %d,%d",
			m.Rows, m.Cols, len(xa), len(xb), len(oa), len(ob)))
	}
	if xb == nil {
		for r := range oa {
			row := m.Row(r)
			oa[r] = Dot(row[:n], xa) + row[n]
		}
		return
	}
	xb = xb[:n]
	r := 0
	for ; r+4 <= m.Rows; r += 4 {
		r0, r1, r2, r3 := m.Row(r)[:n], m.Row(r + 1)[:n], m.Row(r + 2)[:n], m.Row(r + 3)[:n]
		var a0, a1, a2, a3, b0, b1, b2, b3 float64
		for d, x := range xa {
			y := xb[d]
			a0 += r0[d] * x
			b0 += r0[d] * y
			a1 += r1[d] * x
			b1 += r1[d] * y
			a2 += r2[d] * x
			b2 += r2[d] * y
			a3 += r3[d] * x
			b3 += r3[d] * y
		}
		c := m.Cols
		bias := m.V[r*c+n : (r+3)*c+n+1]
		oa[r], ob[r] = a0+bias[0], b0+bias[0]
		oa[r+1], ob[r+1] = a1+bias[c], b1+bias[c]
		oa[r+2], ob[r+2] = a2+bias[2*c], b2+bias[2*c]
		oa[r+3], ob[r+3] = a3+bias[3*c], b3+bias[3*c]
	}
	for ; r < m.Rows; r++ {
		row := m.Row(r)
		w := row[:n]
		var a, b float64
		for d, x := range xa {
			a += w[d] * x
			b += w[d] * xb[d]
		}
		oa[r], ob[r] = a+row[n], b+row[n]
	}
}

// LogSumExp returns log(sum_i exp(v_i)) computed stably.
func LogSumExp(v Vec) float64 {
	if len(v) == 0 {
		return math.Inf(-1)
	}
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	var s float64
	for _, x := range v {
		s += math.Exp(x - m)
	}
	return m + math.Log(s)
}

// Softmax writes softmax(v) into out (may alias v).
func Softmax(v, out Vec) {
	if len(v) != len(out) {
		panic("tensor: softmax length mismatch")
	}
	lse := LogSumExp(v)
	for i, x := range v {
		out[i] = math.Exp(x - lse)
	}
}

// Argmax returns the index of the largest element, or -1 for empty input.
func Argmax(v Vec) int {
	if len(v) == 0 {
		return -1
	}
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}

// Relu writes max(0, v) into out (may alias v).
func Relu(v, out Vec) {
	for i, x := range v {
		if x > 0 {
			out[i] = x
		} else {
			out[i] = 0
		}
	}
}
