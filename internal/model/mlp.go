package model

import (
	"fmt"
	"math"
	"math/rand"

	"specsync/internal/data"
	"specsync/internal/tensor"
)

// MLP is a one-hidden-layer ReLU network trained with cross-entropy loss:
// logits = W2 * relu(W1 * [x;1]) + b2. It is the "deep" stand-in for the
// paper's residual networks: non-convex, with interacting layers, so stale
// gradients hurt it more than they hurt a linear model.
//
// Parameter layout (flat):
//
//	[ W1 (hidden x (dim+1)) | W2 (classes x (hidden+1)) ]
//
// where the +1 columns hold biases.
type MLP struct {
	name      string
	classes   int
	dim       int
	hidden    int
	batchSize int
	l2        float64
	shards    [][]data.Sample
	eval      []data.Sample
}

var _ Model = (*MLP)(nil)
var _ Accuracier = (*MLP)(nil)

// MLPConfig configures an MLP workload.
type MLPConfig struct {
	Name      string
	Hidden    int
	BatchSize int
	L2        float64
}

// NewMLP builds the workload over pre-sharded training data.
func NewMLP(cfg MLPConfig, classes, dim int, shards [][]data.Sample, eval []data.Sample) (*MLP, error) {
	if classes < 2 || dim < 1 || cfg.Hidden < 1 {
		return nil, fmt.Errorf("model: bad MLP shape classes=%d dim=%d hidden=%d", classes, dim, cfg.Hidden)
	}
	if cfg.BatchSize < 1 {
		return nil, fmt.Errorf("model: batch size %d < 1", cfg.BatchSize)
	}
	if len(shards) == 0 || len(eval) == 0 {
		return nil, fmt.Errorf("model: MLP needs shards and eval data")
	}
	name := cfg.Name
	if name == "" {
		name = "mlp"
	}
	return &MLP{
		name:      name,
		classes:   classes,
		dim:       dim,
		hidden:    cfg.Hidden,
		batchSize: cfg.BatchSize,
		l2:        cfg.L2,
		shards:    shards,
		eval:      eval,
	}, nil
}

// Name implements Model.
func (m *MLP) Name() string { return m.name }

// Dim implements Model.
func (m *MLP) Dim() int {
	return m.hidden*(m.dim+1) + m.classes*(m.hidden+1)
}

// NumShards implements Model.
func (m *MLP) NumShards() int { return len(m.shards) }

// w1 and w2 view the flat parameter vector as the two weight matrices.
func (m *MLP) w1(w tensor.Vec) tensor.Mat {
	return tensor.MatOver(m.hidden, m.dim+1, w[:m.hidden*(m.dim+1)])
}

func (m *MLP) w2(w tensor.Vec) tensor.Mat {
	off := m.hidden * (m.dim + 1)
	return tensor.MatOver(m.classes, m.hidden+1, w[off:])
}

// Init implements Model: He initialization for the ReLU layer, small normal
// for the output layer.
func (m *MLP) Init(rng *rand.Rand) tensor.Vec {
	w := tensor.NewVec(m.Dim())
	he := math.Sqrt(2.0 / float64(m.dim))
	w1 := m.w1(w)
	for i := range w1.V {
		w1.V[i] = rng.NormFloat64() * he
	}
	w2 := m.w2(w)
	out := math.Sqrt(1.0 / float64(m.hidden))
	for i := range w2.V {
		w2.V[i] = rng.NormFloat64() * out
	}
	return w
}

// SampleBatch implements Model.
func (m *MLP) SampleBatch(shard int, rng *rand.Rand) Batch {
	sh := m.shards[shard]
	bs := m.batchSize
	if bs > len(sh) {
		bs = len(sh)
	}
	out := make([]data.Sample, bs)
	for i := range out {
		out[i] = sh[rng.Intn(len(sh))]
	}
	return sampleBatch{samples: out}
}

// mlpAct holds one sample's activations and hidden-layer gradient.
type mlpAct struct {
	hPre, hAct, logits, dHidden tensor.Vec
}

// newActs allocates scratch for one pair of samples.
func (m *MLP) newActs() *[2]mlpAct {
	buf := tensor.NewVec(2 * (3*m.hidden + m.classes))
	next := func(n int) tensor.Vec {
		v := buf[:n:n]
		buf = buf[n:]
		return v
	}
	var acts [2]mlpAct
	for i := range acts {
		acts[i] = mlpAct{hPre: next(m.hidden), hAct: next(m.hidden), logits: next(m.classes), dHidden: next(m.hidden)}
	}
	return &acts
}

// pairAt returns samples[i] and, unless it is the odd last one, samples[i+1].
// Every batch walk steps two samples at a time so both layers can map a
// pair through tensor.Affine2 together.
func pairAt(samples []data.Sample, i int) []data.Sample {
	return samples[i:min(i+2, len(samples))]
}

// forward computes hidden pre-activations, activations and logits for a
// pair of samples, or a lone last one, into acts. For a lone sample the
// second input and outputs stay nil, which Affine2 and Relu skip.
func (m *MLP) forward(w tensor.Vec, pair []data.Sample, acts *[2]mlpAct) {
	a := &acts[0]
	var xb, hPreB, hActB, logitsB tensor.Vec
	if len(pair) == 2 {
		b := &acts[1]
		xb, hPreB, hActB, logitsB = pair[1].X, b.hPre, b.hAct, b.logits
	}
	tensor.Affine2(m.w1(w), pair[0].X, xb, a.hPre, hPreB)
	tensor.Relu(a.hPre, a.hAct)
	tensor.Relu(hPreB, hActB)
	tensor.Affine2(m.w2(w), a.hAct, hActB, a.logits, logitsB)
}

// Grad implements Model via manual backprop, two samples at a time. Every
// gradient element accumulates its per-sample terms in sample order,
// so the result is bit-identical to a one-sample-at-a-time loop.
func (m *MLP) Grad(w tensor.Vec, b Batch) Update {
	sb, ok := b.(sampleBatch)
	if !ok {
		panic(fmt.Sprintf("model: MLP got batch type %T", b))
	}
	g := tensor.NewVec(m.Dim())
	g1 := m.w1(g)
	g2 := m.w2(g)
	w2 := m.w2(w)
	acts := m.newActs()
	inv := 1.0 / float64(len(sb.samples))

	for i := 0; i < len(sb.samples); i += 2 {
		pair := pairAt(sb.samples, i)
		m.forward(w, pair, acts)
		for j, smp := range pair {
			m.backprop(g2, w2, &acts[j], smp.Y, inv)
		}
		m.foldInput(g1, pair, acts)
	}
	if m.l2 > 0 {
		tensor.Axpy(g, m.l2, w)
	}
	return Update{Dense: g}
}

// backprop adds one sample's output-layer gradient to g2 and leaves its
// ReLU-gated hidden gradient in a.dHidden.
func (m *MLP) backprop(g2, w2 tensor.Mat, a *mlpAct, y int, inv float64) {
	logits := a.logits
	tensor.Softmax(logits, logits)
	logits[y] -= 1 // dL/dlogits = p - onehot

	a.dHidden.Zero()
	for k := 0; k < m.classes; k++ {
		dk := logits[k] * inv
		if dk == 0 {
			continue
		}
		row := g2.Row(k)
		tensor.Axpy(row[:m.hidden], dk, a.hAct)
		row[m.hidden] += dk
		tensor.Axpy(a.dHidden, dk, w2.Row(k)[:m.hidden])
	}
	for h, z := range a.hPre {
		if z <= 0 {
			a.dHidden[h] = 0
		}
	}
}

// foldInput adds the pair's input-layer gradients to g1 in one pass over
// each row: per element, the first sample's term and then the second's,
// skipping a sample whose hidden gradient is zero, exactly as two
// successive per-sample passes would.
func (m *MLP) foldInput(g1 tensor.Mat, pair []data.Sample, acts *[2]mlpAct) {
	xa := pair[0].X
	var xb, dB tensor.Vec
	if len(pair) == 2 {
		xb, dB = pair[1].X, acts[1].dHidden
	}
	for h, da := range acts[0].dHidden {
		var db float64
		if dB != nil {
			db = dB[h]
		}
		row := g1.Row(h)
		switch {
		case da != 0 && db != 0:
			wr, xb := row[:len(xa)], xb[:len(xa)]
			for d, xv := range xa {
				wr[d] = wr[d] + da*xv + db*xb[d]
			}
			row[m.dim] = row[m.dim] + da + db
		case da != 0:
			tensor.Axpy(row[:m.dim], da, xa)
			row[m.dim] += da
		case db != 0:
			tensor.Axpy(row[:m.dim], db, xb)
			row[m.dim] += db
		}
	}
}

// BatchLoss implements Model.
func (m *MLP) BatchLoss(w tensor.Vec, b Batch) float64 {
	sb, ok := b.(sampleBatch)
	if !ok {
		panic(fmt.Sprintf("model: MLP got batch type %T", b))
	}
	return m.meanLoss(w, sb.samples)
}

// EvalLoss implements Model.
func (m *MLP) EvalLoss(w tensor.Vec) float64 { return m.meanLoss(w, m.eval) }

func (m *MLP) meanLoss(w tensor.Vec, samples []data.Sample) float64 {
	acts := m.newActs()
	var total float64
	for i := 0; i < len(samples); i += 2 {
		pair := pairAt(samples, i)
		m.forward(w, pair, acts)
		for j, smp := range pair {
			total += tensor.LogSumExp(acts[j].logits) - acts[j].logits[smp.Y]
		}
	}
	loss := total / float64(len(samples))
	if m.l2 > 0 {
		loss += 0.5 * m.l2 * tensor.Dot(w, w)
	}
	return loss
}

// EvalAccuracy implements Accuracier.
func (m *MLP) EvalAccuracy(w tensor.Vec) float64 {
	acts := m.newActs()
	correct := 0
	for i := 0; i < len(m.eval); i += 2 {
		pair := pairAt(m.eval, i)
		m.forward(w, pair, acts)
		for j, smp := range pair {
			if tensor.Argmax(acts[j].logits) == smp.Y {
				correct++
			}
		}
	}
	return float64(correct) / float64(len(m.eval))
}
