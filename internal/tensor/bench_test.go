package tensor

import (
	"math/rand"
	"testing"
)

func randVec(n int, seed int64) Vec {
	rng := rand.New(rand.NewSource(seed))
	v := NewVec(n)
	RandNormal(v, 1, rng)
	return v
}

func BenchmarkAxpy(b *testing.B) {
	x, y := randVec(7210, 1), randVec(7210, 2)
	b.SetBytes(7210 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Axpy(y, 0.001, x)
	}
}

func BenchmarkDot(b *testing.B) {
	x, y := randVec(7210, 1), randVec(7210, 2)
	b.SetBytes(7210 * 8)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += Dot(x, y)
	}
	_ = sink
}

// BenchmarkAffine2 maps one 64-sample batch through the CIFAR MLP's first
// layer (96 hidden units over 64 inputs plus bias), two samples per call.
func BenchmarkAffine2(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	m := MatOver(96, 65, NewVec(96*65))
	RandNormal(m.V, 1, rng)
	xs := make([]Vec, 64)
	for i := range xs {
		xs[i] = randVec(64, int64(4+i))
	}
	oa, ob := NewVec(96), NewVec(96)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < len(xs); s += 2 {
			Affine2(m, xs[s], xs[s+1], oa, ob)
		}
	}
}

func BenchmarkSoftmax(b *testing.B) {
	v, out := randVec(50, 5), NewVec(50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Softmax(v, out)
	}
}
