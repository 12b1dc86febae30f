package model

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"specsync/internal/data"
)

// newShapedMF builds an MF workload the way the cluster package does, at the
// given users x items x rank shape and batch size.
func newShapedMF(tb testing.TB, users, items, rank, n, evalN, batch, shards int) *MF {
	tb.Helper()
	r, err := data.NewRatings(data.RatingsConfig{
		Users: users, Items: items, TrueRank: rank / 2,
		N: n, EvalN: evalN, Noise: 0.1, Seed: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	sh, err := data.ShardRatings(r.Train, shards, false, 2)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := NewMF(MFConfig{Rank: rank, BatchSize: batch, L2: 0.02, InitScale: 0.15}, users, items, sh, r.Eval)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// TestMFConcurrentGradMatchesSequential: the live runtime calls Grad on one
// shared MF from every worker goroutine, so the pooled builders must never
// leak one call's contributions into another. Run under -race.
func TestMFConcurrentGradMatchesSequential(t *testing.T) {
	m := newShapedMF(t, 120, 90, 8, 6000, 400, 200, 4) // cluster.SizeSmall shape
	rng := rand.New(rand.NewSource(3))
	w := m.Init(rng)
	var batches []Batch
	for i := 0; i < 16; i++ {
		batches = append(batches, m.SampleBatch(i%m.NumShards(), rng))
	}
	want := make([]Update, len(batches))
	for i, b := range batches {
		want[i] = m.Grad(w, b)
	}

	const goroutines, rounds = 8, 6
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range batches {
					i := (k + g) % len(batches)
					if !sameSparse(m.Grad(w, batches[i]), want[i]) {
						t.Errorf("goroutine %d: batch %d gradient differs from sequential", g, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func sameSparse(a, b Update) bool {
	x, y := a.Sparse, b.Sparse
	if x == nil || y == nil || len(x.Idx) != len(y.Idx) || len(x.Val) != len(y.Val) {
		return false
	}
	for i := range x.Idx {
		if x.Idx[i] != y.Idx[i] || math.Float64bits(x.Val[i]) != math.Float64bits(y.Val[i]) {
			return false
		}
	}
	return true
}

var gradSink Update

// BenchmarkMFGrad times one gradient at the paper's Fig 8 MF shape: 1200
// users x 900 items, rank 20, batch 1000, sharded over 40 workers.
func BenchmarkMFGrad(b *testing.B) {
	m := newShapedMF(b, 1200, 900, 20, 60000, 2000, 1000, 40)
	rng := rand.New(rand.NewSource(1))
	w := m.Init(rng)
	batches := make([]Batch, 8)
	for i := range batches {
		batches[i] = m.SampleBatch(i, rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		gradSink = m.Grad(w, batches[n%len(batches)])
	}
}
