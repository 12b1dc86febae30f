package sparse

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// mapBuilder is the original map + sort.Slice Builder, kept as the reference
// the dense-scratch Builder must match bit for bit: same indices, same sums
// in the same order, touched-but-zero indices kept.
type mapBuilder struct {
	vals map[int32]float64
}

func newMapBuilder() *mapBuilder { return &mapBuilder{vals: make(map[int32]float64)} }

func (b *mapBuilder) Add(index int32, value float64) { b.vals[index] += value }

func (b *mapBuilder) AddSpan(base int32, values []float64) {
	for i, v := range values {
		b.vals[base+int32(i)] += v
	}
}

func (b *mapBuilder) Len() int { return len(b.vals) }

func (b *mapBuilder) Build() Vec {
	idx := make([]int32, 0, len(b.vals))
	for ix := range b.vals {
		idx = append(idx, ix)
	}
	sort.Slice(idx, func(i, j int) bool { return idx[i] < idx[j] })
	val := make([]float64, len(idx))
	for i, ix := range idx {
		val[i] = b.vals[ix]
	}
	b.vals = make(map[int32]float64)
	return Vec{Idx: idx, Val: val}
}

// bothBuilders applies every contribution to the Builder under test and to
// the reference.
type bothBuilders struct {
	got  *Builder
	want *mapBuilder
}

func (b bothBuilders) Add(index int32, value float64) {
	b.got.Add(index, value)
	b.want.Add(index, value)
}

func (b bothBuilders) AddSpan(base int32, values []float64) {
	b.got.AddSpan(base, values)
	b.want.AddSpan(base, values)
}

var negZero = math.Copysign(0, -1)

// TestBuilderMatchesMapReference drives one Builder through three or more
// Builds over disjoint index bands, then one over the whole range, and
// checks each result against a fresh map reference, bit for bit. Each band
// reserves its first index for a sum that cancels to exactly 0 and its
// second for -0 contributions only; the rest take random Adds and
// overlapping AddSpans, some with -0 entries.
func TestBuilderMatchesMapReference(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var bands [][2]int
		end := 0
		for r := 3 + rng.Intn(3); r > 0; r-- {
			bands = append(bands, [2]int{end, end + 3 + rng.Intn(100)})
			end = bands[len(bands)-1][1]
		}
		dim := end + rng.Intn(20) // a tail no band touches
		// The last Build spans the whole range again, so a stale scratch
		// value from an earlier Build would surface in its sums.
		bands = append(bands, [2]int{0, dim})

		b := NewBuilder(dim)
		for r, band := range bands {
			lo, hi := band[0], band[1]
			bb := bothBuilders{got: b, want: newMapBuilder()}
			cancel, negOnly, free := int32(lo), int32(lo+1), lo+2

			x := rng.NormFloat64()
			bb.Add(cancel, x)
			bb.Add(negOnly, negZero)
			for op := rng.Intn(60); op > 0; op-- {
				switch rng.Intn(4) {
				case 0:
					bb.Add(int32(free+rng.Intn(hi-free)), rng.NormFloat64())
				case 1:
					bb.Add(int32(free+rng.Intn(hi-free)), negZero)
				default:
					base := free + rng.Intn(hi-free)
					span := make([]float64, 1+rng.Intn(hi-base))
					for i := range span {
						span[i] = rng.NormFloat64()
						if rng.Intn(5) == 0 {
							span[i] = negZero
						}
					}
					bb.AddSpan(int32(base), span)
					// Overlap the span just added, shifted by one.
					if len(span) > 1 {
						bb.AddSpan(int32(base+1), span[1:])
					}
				}
			}
			bb.Add(cancel, -x)
			bb.Add(negOnly, negZero)

			if b.Len() != bb.want.Len() {
				t.Fatalf("seed %d round %d: Len = %d, want %d", seed, r, b.Len(), bb.want.Len())
			}
			got, want := b.Build(), bb.want.Build()
			if b.Len() != 0 {
				t.Fatalf("seed %d round %d: Len after Build = %d", seed, r, b.Len())
			}
			assertBitIdentical(t, got, want)
			if err := got.Validate(dim); err != nil {
				t.Fatalf("seed %d round %d: %v", seed, r, err)
			}
			for _, ix := range []int32{cancel, negOnly} {
				if got.Idx[ix-int32(lo)] != ix || math.Float64bits(got.Val[ix-int32(lo)]) != 0 {
					t.Fatalf("seed %d round %d: index %d missing or not +0", seed, r, ix)
				}
			}
		}
		if v := b.Build(); v.Len() != 0 {
			t.Fatalf("seed %d: residue after last Build: %v", seed, v)
		}
	}
}

func assertBitIdentical(t *testing.T, got, want Vec) {
	t.Helper()
	if len(got.Idx) != len(want.Idx) || len(got.Val) != len(want.Val) {
		t.Fatalf("lengths %d/%d, want %d/%d", len(got.Idx), len(got.Val), len(want.Idx), len(want.Val))
	}
	for i := range want.Idx {
		if got.Idx[i] != want.Idx[i] {
			t.Fatalf("Idx[%d] = %d, want %d", i, got.Idx[i], want.Idx[i])
		}
		if math.Float64bits(got.Val[i]) != math.Float64bits(want.Val[i]) {
			t.Fatalf("Val[%d] (index %d) = %v, want %v", i, want.Idx[i], got.Val[i], want.Val[i])
		}
	}
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	cases := map[string]func(b *Builder){
		"add at dim":       func(b *Builder) { b.Add(8, 1) },
		"add negative":     func(b *Builder) { b.Add(-1, 1) },
		"span past end":    func(b *Builder) { b.AddSpan(7, []float64{1, 2}) },
		"span negative":    func(b *Builder) { b.AddSpan(-1, []float64{1}) },
		"span base at dim": func(b *Builder) { b.AddSpan(8, []float64{1}) },
	}
	for name, f := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f(NewBuilder(8))
		})
	}
}

var buildSink Vec

// BenchmarkBuilder builds one Fig 8 MF gradient's worth of contributions:
// 1000 ratings, each scattering a rank-20 user row and item row into the
// (1200+900)*20 flat parameter space.
func BenchmarkBuilder(b *testing.B) {
	const users, items, rank, batch = 1200, 900, 20, 1000
	rng := rand.New(rand.NewSource(1))
	bases := make([]int32, 0, 2*batch)
	for i := 0; i < batch; i++ {
		bases = append(bases, int32(rng.Intn(users)*rank), int32((users+rng.Intn(items))*rank))
	}
	row := make([]float64, rank)
	for i := range row {
		row[i] = rng.NormFloat64()
	}
	builder := NewBuilder((users + items) * rank)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, base := range bases {
			builder.AddSpan(base, row)
		}
		buildSink = builder.Build()
	}
}
