package model

import (
	"math"
	"math/rand"
	"testing"

	"specsync/internal/data"
	"specsync/internal/tensor"
)

// The ref* functions are the one-sample-at-a-time MLP the paired kernels
// replaced. They are the reference the paired path must match bit for bit.

func refForward(m *MLP, w tensor.Vec, x []float64, hPre, hAct, logits tensor.Vec) {
	w1 := m.w1(w)
	for h := 0; h < m.hidden; h++ {
		row := w1.Row(h)
		var z float64
		for d, xv := range x {
			z += row[d] * xv
		}
		hPre[h] = z + row[m.dim]
	}
	tensor.Relu(hPre, hAct)
	w2 := m.w2(w)
	for k := 0; k < m.classes; k++ {
		row := w2.Row(k)
		var z float64
		for h := 0; h < m.hidden; h++ {
			z += row[h] * hAct[h]
		}
		logits[k] = z + row[m.hidden]
	}
}

func refGrad(m *MLP, w tensor.Vec, samples []data.Sample) tensor.Vec {
	g := tensor.NewVec(m.Dim())
	g1, g2, w2 := m.w1(g), m.w2(g), m.w2(w)
	hPre, hAct := tensor.NewVec(m.hidden), tensor.NewVec(m.hidden)
	logits, dHidden := tensor.NewVec(m.classes), tensor.NewVec(m.hidden)
	inv := 1.0 / float64(len(samples))
	for _, smp := range samples {
		refForward(m, w, smp.X, hPre, hAct, logits)
		tensor.Softmax(logits, logits)
		logits[smp.Y] -= 1
		dHidden.Zero()
		for k := 0; k < m.classes; k++ {
			dk := logits[k] * inv
			if dk == 0 {
				continue
			}
			row := g2.Row(k)
			for h := 0; h < m.hidden; h++ {
				row[h] += dk * hAct[h]
			}
			row[m.hidden] += dk
			tensor.Axpy(dHidden, dk, w2.Row(k)[:m.hidden])
		}
		for h := 0; h < m.hidden; h++ {
			if hPre[h] <= 0 {
				dHidden[h] = 0
			}
		}
		for h := 0; h < m.hidden; h++ {
			dh := dHidden[h]
			if dh == 0 {
				continue
			}
			row := g1.Row(h)
			for d, xv := range smp.X {
				row[d] += dh * xv
			}
			row[m.dim] += dh
		}
	}
	if m.l2 > 0 {
		tensor.Axpy(g, m.l2, w)
	}
	return g
}

func refMeanLoss(m *MLP, w tensor.Vec, samples []data.Sample) float64 {
	hPre, hAct, logits := tensor.NewVec(m.hidden), tensor.NewVec(m.hidden), tensor.NewVec(m.classes)
	var total float64
	for _, smp := range samples {
		refForward(m, w, smp.X, hPre, hAct, logits)
		total += tensor.LogSumExp(logits) - logits[smp.Y]
	}
	loss := total / float64(len(samples))
	if m.l2 > 0 {
		loss += 0.5 * m.l2 * tensor.Dot(w, w)
	}
	return loss
}

func refAccuracy(m *MLP, w tensor.Vec) float64 {
	hPre, hAct, logits := tensor.NewVec(m.hidden), tensor.NewVec(m.hidden), tensor.NewVec(m.classes)
	correct := 0
	for _, smp := range m.eval {
		refForward(m, w, smp.X, hPre, hAct, logits)
		if tensor.Argmax(logits) == smp.Y {
			correct++
		}
	}
	return float64(correct) / float64(len(m.eval))
}

func randSamples(rng *rand.Rand, n, dim, classes int) []data.Sample {
	out := make([]data.Sample, n)
	for i := range out {
		x := make([]float64, dim)
		for d := range x {
			x[d] = rng.NormFloat64() * 2
		}
		out[i] = data.Sample{X: x, Y: rng.Intn(classes)}
	}
	return out
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestMLPPairedMatchesReference checks that Grad, BatchLoss, EvalLoss and
// EvalAccuracy are bit-identical to the one-sample reference over shapes
// that hit every kernel path: hidden not a multiple of four and classes
// below four (remainder rows), odd batches and batch 1 (the unpaired last
// sample), and odd eval sets. It also checks that the batches exercised
// hidden units dead for the first sample of a pair only, for the second
// only, and for both, so every zero-gradient skip in the input-layer fold
// ran.
func TestMLPPairedMatchesReference(t *testing.T) {
	type shape struct{ dim, hidden, classes, batch, evalN int }
	shapes := []shape{
		{64, 96, 10, 64, 500}, // the CIFAR workload
		{5, 7, 3, 1, 1},
		{3, 5, 2, 7, 9},
		{9, 13, 2, 2, 3},
		{1, 1, 2, 3, 2},
		{33, 6, 11, 15, 17},
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 30; i++ {
		shapes = append(shapes, shape{1 + rng.Intn(20), 1 + rng.Intn(20), 2 + rng.Intn(12), 1 + rng.Intn(12), 1 + rng.Intn(15)})
	}

	var deadA, deadB, deadBoth int
	for si, sh := range shapes {
		shards := [][]data.Sample{randSamples(rng, sh.batch, sh.dim, sh.classes)}
		eval := randSamples(rng, sh.evalN, sh.dim, sh.classes)
		l2 := 0.0
		if si%2 == 0 {
			l2 = 1e-3
		}
		m, err := NewMLP(MLPConfig{Hidden: sh.hidden, BatchSize: sh.batch, L2: l2}, sh.classes, sh.dim, shards, eval)
		if err != nil {
			t.Fatal(err)
		}
		w := m.Init(rng)
		// Kill the last hidden unit for every input: zero weights and a
		// negative bias.
		last := m.w1(w).Row(sh.hidden - 1)
		for d := range last {
			last[d] = 0
		}
		last[sh.dim] = -1

		batch := sampleBatch{samples: shards[0]}
		got, want := m.Grad(w, batch).Dense, refGrad(m, w, batch.samples)
		for j := range want {
			if !sameBits(got[j], want[j]) {
				t.Fatalf("shape %+v: grad[%d] = %v, reference %v", sh, j, got[j], want[j])
			}
		}
		if g, r := m.BatchLoss(w, batch), refMeanLoss(m, w, batch.samples); !sameBits(g, r) {
			t.Fatalf("shape %+v: BatchLoss %v, reference %v", sh, g, r)
		}
		if g, r := m.EvalLoss(w), refMeanLoss(m, w, eval); !sameBits(g, r) {
			t.Fatalf("shape %+v: EvalLoss %v, reference %v", sh, g, r)
		}
		if g, r := m.EvalAccuracy(w), refAccuracy(m, w); !sameBits(g, r) {
			t.Fatalf("shape %+v: EvalAccuracy %v, reference %v", sh, g, r)
		}

		// Tally which ReLU gates closed within each pair the batch walk
		// formed.
		hA, hB := tensor.NewVec(sh.hidden), tensor.NewVec(sh.hidden)
		act, logits := tensor.NewVec(sh.hidden), tensor.NewVec(sh.classes)
		for p := 0; p+1 < len(batch.samples); p += 2 {
			refForward(m, w, batch.samples[p].X, hA, act, logits)
			refForward(m, w, batch.samples[p+1].X, hB, act, logits)
			for h := range hA {
				switch a, b := hA[h] <= 0, hB[h] <= 0; {
				case a && b:
					deadBoth++
				case a:
					deadA++
				case b:
					deadB++
				}
			}
		}
	}
	if deadA == 0 || deadB == 0 || deadBoth == 0 {
		t.Errorf("dead-unit cases not all exercised: first only %d, second only %d, both %d", deadA, deadB, deadBoth)
	}
}

// newCIFARShapedMLP builds the MLP at the CIFAR workload's full shape: 64
// inputs, 96 hidden units, 10 classes, batch 64, sharded over 40 workers.
func newCIFARShapedMLP(tb testing.TB) *MLP {
	tb.Helper()
	blobs, err := data.NewBlobs(data.BlobsConfig{
		Classes: 10, Dim: 64, N: 10000, EvalN: 500,
		Spread: 1.0, Noise: 1.0, ScaleSpread: 6, Seed: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	shards, err := data.ShardSamples(blobs.Train, 40, false, 2)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := NewMLP(MLPConfig{Hidden: 96, BatchSize: 64, L2: 1e-4}, 10, 64, shards, blobs.Eval)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

var lossSink float64

func BenchmarkMLPGrad(b *testing.B) {
	m := newCIFARShapedMLP(b)
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

func BenchmarkMLPEvalLoss(b *testing.B) {
	m := newCIFARShapedMLP(b)
	w := m.Init(rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		lossSink = m.EvalLoss(w)
	}
}
