package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // leaf first
		want  string
	}{
		{"innermost internal frame wins", []string{
			"runtime.memmove",
			"specsync/internal/wire.(*Writer).Float64s",
			"specsync/internal/msg.(*PullResp).Encode",
			"specsync/internal/ps.(*Server).Receive",
		}, "wire"},
		{"closures and generics", []string{
			"specsync/internal/sparse.(*Builder).Build.func1",
			"specsync/internal/model.(*MF).Grad",
		}, "sparse"},
		{"benchmark frames are skipped", []string{
			"specsync/perfbench.(*timedModel).Grad",
			"specsync/internal/worker.(*Worker).finishCompute",
		}, "worker"},
		{"unlisted internal package", []string{
			"specsync/internal/data.NewRatings",
			"specsync/internal/model.(*MF).Grad",
		}, "other"},
		{"no internal frame", []string{"runtime.futex", "runtime.mcall"}, "other"},
		{"background mark worker", []string{
			"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.gcBgMarkWorker",
		}, "gc"},
		{"mark assist inside a layer", []string{
			"runtime.gcDrainN", "runtime.gcAssistAlloc1", "runtime.gcAssistAlloc",
			"runtime.mallocgc", "specsync/internal/sparse.(*Builder).Add",
		}, "gc"},
		{"sweeper", []string{"runtime.sweepone", "runtime.bgsweep"}, "gc"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("%s: layerOf = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestAttributeSumsCounts(t *testing.T) {
	got := map[string]int64{}
	attribute([]stackSample{
		{stack: []string{"specsync/internal/des.(*Sim).Step"}, count: 3},
		{stack: []string{"specsync/internal/core.Tune"}, count: 2},
		{stack: []string{"specsync/internal/des.(*queue).Pop"}, count: 1},
		{stack: []string{"runtime.gcBgMarkWorker"}, count: 4},
	}, got)
	want := map[string]int64{"des": 4, "core": 2, "gc": 4}
	if len(got) != len(want) {
		t.Fatalf("attribute = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("attribute[%s] = %d, want %d", k, got[k], v)
		}
	}
}

//go:noinline
func spinForProfile(d time.Duration) float64 {
	x := 1.0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			x = x*1.0000001 + 1e-9
		}
	}
	return x
}

// TestParseCPUProfile round-trips a real runtime/pprof CPU profile through
// the decoder: the busy function must appear in the decoded stacks.
func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, spin int64
	for _, s := range samples {
		total += s.count
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".spinForProfile") {
				spin += s.count
				break
			}
		}
	}
	if total == 0 {
		t.Skip("profile caught no samples")
	}
	if spin*2 < total {
		t.Errorf("spinForProfile in %d of %d samples, want most", spin, total)
	}
}

func TestParseCPUProfileRejectsGarbage(t *testing.T) {
	if _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Error("parseCPUProfile accepted bytes that are not gzip")
	}
}

func TestNodeTimeIncludesCallees(t *testing.T) {
	got := map[string]int64{}
	nodeTime([]stackSample{
		{stack: []string{"specsync/internal/optimizer.(*SGD).Apply", "specsync/internal/ps.(*Server).Receive", "specsync/internal/des.(*Sim).Step"}, count: 2},
		{stack: []string{"specsync/internal/core.Tune", "specsync/internal/core.(*Scheduler).Receive"}, count: 3},
		{stack: []string{"specsync/internal/wire.(*Writer).Float64s", "specsync/internal/worker.(*Worker).sendPush"}, count: 5},
		{stack: []string{"specsync/internal/sparse.(*Builder).Add", "specsync/internal/model.(*MF).Grad", "specsync/internal/worker.(*Worker).finishCompute"}, count: 7},
		{stack: []string{"specsync/internal/des.(*Sim).Step"}, count: 11},
	}, got)
	want := map[string]int64{"ps": 2, "core": 3, "worker": 5}
	if len(got) != len(want) {
		t.Fatalf("nodeTime = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("nodeTime[%s] = %d, want %d", k, got[k], v)
		}
	}
}
