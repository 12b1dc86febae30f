// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed wall-clock budget, checks every run's output, and
// prints one JSON line of metrics: the end-to-end metrics by default, or,
// with -trace 1, per-layer metrics from a separate traced run (a CPU profile
// split by package, plus model, handler and context decorators).
//
//	go run . -workload des-mf -seed 1 -seconds 20 -trace 0
//
// See NOTES.md for the workloads, metrics and what is not measured.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"specsync/internal/cluster"
	"specsync/internal/node"
	"specsync/internal/optimizer"
)

// A workload prepares one run's inputs and nodes from the seed, with or
// without tracing; setup_s times prepare.
type workload interface {
	prepare(seed int64, traced bool) (job, error)
}

// A job is one prepared run. run measures it and checks its output; close
// releases what prepare started, whether or not the job ran.
type job interface {
	run() (*runStats, error)
	close()
}

var workloads = map[string]workload{
	"des-mf": desWorkload{
		build: func(seed int64) (cluster.Workload, error) {
			return cluster.NewMF(cluster.SizeFull, 40, seed)
		},
		workers: 40, horizon: 70 * time.Second,
	},
	"des-mlp": desWorkload{
		build: func(seed int64) (cluster.Workload, error) {
			wl, err := cluster.NewCIFAR(cluster.SizeFull, 40, seed)
			// At the Fig 8 rate (0.2, momentum 0.9) the loss first climbs
			// to 10^3-10^4 and takes hours of virtual time to come back
			// below its start. The calibrated rate NewCIFAR uses at
			// SizeSmall trains within the horizon; the work per iteration
			// does not depend on the rate.
			wl.Schedule, wl.Momentum = optimizer.Const(0.03), 0.8
			return wl, err
		},
		workers: 40, horizon: 20 * time.Minute,
	},
	"des-fleet": desWorkload{
		build: func(seed int64) (cluster.Workload, error) {
			wl, err := cluster.NewTiny(128, seed)
			// NewTiny's rate is calibrated for a few workers; with 128
			// asynchronous pushes in flight it diverges, a tenth of it
			// does not.
			wl.Schedule = optimizer.Const(0.005)
			return wl, err
		},
		workers: 128, horizon: 2 * time.Minute,
	},
	"live-tcp": liveWorkload{
		workers: 2, servers: 2, budget: 20000,
		compute: time.Microsecond, timeout: 60 * time.Second,
	},
}

// minRuns is the fewest measured runs an untraced invocation makes, so the
// reported medians always rest on several samples.
const minRuns = 3

// setupReps is the number of extra set-ups, closed without running, that an
// untraced invocation times before its runs, so that setup_s is a median of
// more samples than there are runs.
const setupReps = 10

func main() {
	name := flag.String("workload", "", "workload: des-mf, des-mlp, des-fleet or live-tcp")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 25, "wall-clock budget for measured runs")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from traced runs")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	budget := time.Duration(*seconds * float64(time.Second))
	out, err := bench(wl, *seed, budget, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runStats is what one measured run reports.
type runStats struct {
	wall                time.Duration
	iters, aborts       int64
	resyncs             int64
	wireBytes, events   int64
	allocBytes, gcs     uint64
	peakLive            uint64
	initLoss, finalLoss float64
	digest              string // DES only
	delivered           int64  // messages delivered to nodes

	// Traced runs only. Round trips are in µs: wall time on live-tcp,
	// virtual time (pull and push spans) on the DES.
	pullRTT, pushRTT []float64
	// DES messages handled by the servers and by the scheduler.
	serverMsgs, schedMsgs int64
	profile               map[string]int64 // CPU samples per layer
	nodeTime              map[string]int64 // CPU samples inside ps, core and worker nodes
	model                 *timedModel
	live                  map[node.ID]*tracedHandler // live-tcp only

	failures []string
}

func (st *runStats) fail(format string, args ...any) {
	st.failures = append(st.failures, fmt.Sprintf(format, args...))
}

// bench runs the workload until the budget is spent: untraced runs for the
// end-to-end metrics, or alternating untraced and traced runs for the
// per-layer metrics. Each run builds its inputs afresh from the same seed,
// so the DES runs must all end at one parameter digest.
func bench(wl workload, seed int64, budget time.Duration, traced bool) (*result, error) {
	var plain, withTrace []*runStats
	var setups []float64
	res := &result{Correct: true}
	prepare := func(traced bool) (job, time.Duration, error) {
		t0 := time.Now()
		j, err := wl.prepare(seed, traced)
		setup := time.Since(t0)
		if err == nil {
			setups = append(setups, setup.Seconds())
		}
		return j, setup, err
	}
	runOnce := func(traced bool) (*runStats, error) {
		j, setup, err := prepare(traced)
		if err != nil {
			return nil, err
		}
		defer j.close()
		st, err := j.run()
		if err != nil {
			return nil, err
		}
		res.Attempted++
		if len(plain) > 0 && st.digest != plain[0].digest {
			st.fail("params digest %.12s, first run %.12s", st.digest, plain[0].digest)
		}
		if len(st.failures) > 0 {
			res.Failed++
			res.Correct = false
			for _, f := range st.failures {
				fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
			}
		}
		fmt.Fprintf(os.Stderr, "run %d traced=%v: setup %.4fs wall %.3fs iters %d aborts %d alloc %.1fMiB peak %.2fMiB gcs %d loss %.6g digest %.12s\n",
			res.Attempted, traced, setup.Seconds(), st.wall.Seconds(), st.iters, st.aborts,
			float64(st.allocBytes)/mib, float64(st.peakLive)/mib, st.gcs, st.finalLoss, st.digest)
		return st, nil
	}

	start := time.Now()
	if !traced {
		for i := 0; i < setupReps; i++ {
			j, _, err := prepare(false)
			if err != nil {
				return nil, err
			}
			j.close()
		}
	}
	var last time.Duration
	for i := 0; ; i++ {
		// Start another run only if it is expected to end within the budget.
		if (traced && i >= 1 || !traced && i >= minRuns) && time.Since(start)+last > budget {
			break
		}
		t0 := time.Now()
		st, err := runOnce(false)
		if err != nil {
			return nil, err
		}
		plain = append(plain, st)
		if traced {
			st, err := runOnce(true)
			if err != nil {
				return nil, err
			}
			withTrace = append(withTrace, st)
		}
		last = time.Since(t0)
	}
	if traced {
		res.Metrics = layerMetrics(plain, withTrace)
	} else {
		res.Metrics = endToEnd(plain)
		res.Metrics["setup_s"] = metric{median(setups), "s"}
	}
	return res, nil
}

// med is the median of f over the runs.
func med(runs []*runStats, f func(*runStats) float64) float64 {
	xs := make([]float64, len(runs))
	for i, st := range runs {
		xs[i] = f(st)
	}
	return median(xs)
}

const mib = 1 << 20

func endToEnd(runs []*runStats) map[string]metric {
	return map[string]metric{
		"wall_s":       {med(runs, func(st *runStats) float64 { return st.wall.Seconds() }), "s"},
		"iters_per_s":  {med(runs, func(st *runStats) float64 { return float64(st.iters) / st.wall.Seconds() }), "1/s"},
		"alloc_mb":     {med(runs, func(st *runStats) float64 { return float64(st.allocBytes) / mib }), "MiB"},
		"peak_heap_mb": {med(runs, func(st *runStats) float64 { return float64(st.peakLive) / mib }), "MiB"},
	}
}

func layerMetrics(plain, traced []*runStats) map[string]metric {
	wallOf := func(st *runStats) float64 { return st.wall.Seconds() }
	m := map[string]metric{
		"trace.overhead_frac": {med(traced, wallOf)/med(plain, wallOf) - 1, "frac"},
		"final_loss":          {med(traced, func(st *runStats) float64 { return st.finalLoss }), "loss"},
		"gc.cycles":           {med(traced, func(st *runStats) float64 { return float64(st.gcs) }), "count"},
		"des.events_per_s": {med(traced, func(st *runStats) float64 {
			return float64(st.events) / st.wall.Seconds()
		}), "1/s"},
		"wire.bytes_per_iter": {med(traced, func(st *runStats) float64 {
			return float64(st.wireBytes) / float64(st.iters)
		}), "B"},
		"worker.useful_frac": {med(traced, func(st *runStats) float64 {
			return float64(st.iters) / float64(st.iters+st.aborts)
		}), "frac"},
		"core.resyncs_per_iter": {med(traced, func(st *runStats) float64 {
			return float64(st.resyncs) / float64(st.iters)
		}), "1/iter"},
		"model.grad_calls": {med(traced, func(st *runStats) float64 {
			return float64(st.model.gradCalls.Load())
		}), "count"},
		"model.grad_us": {med(traced, func(st *runStats) float64 {
			return float64(st.model.gradNanos.Load()) / 1e3 / float64(st.model.gradCalls.Load())
		}), "us"},
		"model.grad_share": {med(traced, func(st *runStats) float64 {
			return time.Duration(st.model.gradNanos.Load()).Seconds() / st.wall.Seconds()
		}), "frac"},
		"model.eval_share": {med(traced, func(st *runStats) float64 {
			return time.Duration(st.model.evalNanos.Load()).Seconds() / st.wall.Seconds()
		}), "frac"},
	}
	cpu := map[string]int64{}
	for _, st := range traced {
		for l, n := range st.profile {
			cpu[l] += n
		}
	}
	var total int64
	for _, n := range cpu {
		total += n
	}
	m["cpu.samples"] = metric{float64(total), "count"}
	for _, l := range append(append([]string(nil), layers...), "gc", "other") {
		share := 0.0
		if total > 0 {
			share = float64(cpu[l]) / float64(total)
		}
		m["cpu."+l] = metric{share, "frac"}
	}
	for k, v := range messagingMetrics(traced) {
		m[k] = v
	}
	return m
}

// cpuSample is the CPU time one profile sample stands for: runtime/pprof
// samples at 100 Hz.
const cpuSample = 10 * time.Millisecond

// messagingMetrics reports round trips and the time nodes spend per message.
// On live-tcp the handler and context decorators time each callback. The DES
// nodes cannot be decorated from outside cluster.Run, so there a node's time
// is the CPU-profile samples inside it, divided by the messages it handled.
func messagingMetrics(traced []*runStats) map[string]metric {
	var pushRTT, pullRTT, psUS, coreUS, selfUS, msgsPerS []float64
	for _, st := range traced {
		pushRTT = append(pushRTT, st.pushRTT...)
		pullRTT = append(pullRTT, st.pullRTT...)
		msgsPerS = append(msgsPerS, float64(st.delivered)/st.wall.Seconds())
		if st.live == nil {
			perMsgUS := func(kind string, msgs int64) float64 {
				return float64(time.Duration(st.nodeTime[kind])*cpuSample) / float64(time.Microsecond) / float64(msgs)
			}
			psUS = append(psUS, perMsgUS("ps", st.serverMsgs))
			coreUS = append(coreUS, perMsgUS("core", st.schedMsgs))
			selfUS = append(selfUS, perMsgUS("worker", st.iters))
			continue
		}
		var ps, core, wk tally
		for id, th := range st.live {
			switch {
			case node.ServerIndex(id) >= 0:
				ps.add(th)
			case node.WorkerIndex(id) >= 0:
				wk.add(th)
			default:
				core.add(th)
			}
		}
		modelTime := time.Duration(st.model.gradNanos.Load() + st.model.sampleNanos.Load())
		psUS = append(psUS, ps.perMsgUS())
		coreUS = append(coreUS, core.perMsgUS())
		selfUS = append(selfUS, float64(wk.busy-modelTime)/float64(time.Microsecond)/float64(st.iters))
	}
	return map[string]metric{
		"live.push_rtt_p50_us": {percentile(pushRTT, 50), "us"},
		"live.push_rtt_p99_us": {percentile(pushRTT, 99), "us"},
		"live.pull_rtt_p50_us": {percentile(pullRTT, 50), "us"},
		"ps.receive_us":        {median(psUS), "us"},
		"core.receive_us":      {median(coreUS), "us"},
		"worker.self_us":       {median(selfUS), "us"},
		"transport.msgs_per_s": {median(msgsPerS), "1/s"},
	}
}

// tally sums callback time and messages over a group of traced nodes.
type tally struct {
	busy time.Duration
	msgs int64
}

func (t *tally) add(th *tracedHandler) {
	t.busy += th.busy
	t.msgs += th.msgs
}

func (t tally) perMsgUS() float64 {
	return float64(t.busy) / float64(time.Microsecond) / float64(t.msgs)
}

// heapSampleEvery is how often a run polls the live-heap metric; the
// metric only changes when a GC cycle ends.
const heapSampleEvery = 2 * time.Millisecond

// peakPercentile picks the run's peak from its GC cycles' live heaps. The
// very largest swings with GC timing: a cycle that ends while a growing
// slice and its copy are both live reads up to 40% high.
const peakPercentile = 90

// measure runs f after a full GC and reports its wall time, the bytes it
// allocated, the GC cycles it caused and its peak live heap. A traced
// measurement also profiles the CPU and splits the samples by layer.
func measure(traced bool, f func() error) (*runStats, error) {
	runtime.GC()
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/live:bytes"},
	}
	metrics.Read(samples)
	allocs0, gcs0 := samples[0].Value.Uint64(), samples[1].Value.Uint64()
	live0 := samples[2].Value.Uint64()

	stop, done := make(chan struct{}), make(chan uint64)
	go func() {
		// The metric changes once per GC cycle, so each change is one
		// cycle's live heap.
		cycles := []float64{float64(live0)}
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				metrics.Read(s)
				cycles = append(cycles, float64(s[0].Value.Uint64()))
				done <- uint64(percentile(cycles, peakPercentile))
				return
			case <-tick.C:
				metrics.Read(s)
				if v := float64(s[0].Value.Uint64()); v != cycles[len(cycles)-1] {
					cycles = append(cycles, v)
				}
			}
		}
	}()

	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			close(stop)
			<-done
			return nil, err
		}
	}
	t0 := time.Now()
	err := f()
	wall := time.Since(t0)
	if traced {
		pprof.StopCPUProfile()
	}
	close(stop)
	peak := <-done
	if err != nil {
		return nil, err
	}
	metrics.Read(samples)
	st := &runStats{
		wall:       wall,
		allocBytes: samples[0].Value.Uint64() - allocs0,
		gcs:        samples[1].Value.Uint64() - gcs0,
		peakLive:   peak,
	}
	if traced {
		stacks, err := parseCPUProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		st.profile, st.nodeTime = map[string]int64{}, map[string]int64{}
		attribute(stacks, st.profile)
		nodeTime(stacks, st.nodeTime)
	}
	return st, nil
}
