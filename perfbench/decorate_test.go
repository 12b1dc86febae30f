package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"sort"
	"testing"
	"time"

	"specsync/internal/cluster"
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/wire"
)

// smallDES is a DES workload small enough for unit tests.
var smallDES = desWorkload{
	build:   func(seed int64) (cluster.Workload, error) { return cluster.NewTiny(8, seed) },
	workers: 8, horizon: 20 * time.Second,
}

func runJob(t *testing.T, wl workload, seed int64, traced bool) *runStats {
	t.Helper()
	j, err := wl.prepare(seed, traced)
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	st, err := j.run()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.failures) > 0 {
		t.Fatalf("checks failed: %v", st.failures)
	}
	return st
}

// TestTimedModelKeepsDigest: the model decorator only observes, so a traced
// run ends at the same parameters as an untraced one.
func TestTimedModelKeepsDigest(t *testing.T) {
	plain := runJob(t, smallDES, 5, false)
	traced := runJob(t, smallDES, 5, true)
	if plain.digest == "" || plain.digest != traced.digest {
		t.Fatalf("digest %q untraced, %q traced", plain.digest, traced.digest)
	}
	if n := traced.model.gradCalls.Load(); n < traced.iters || traced.iters == 0 {
		t.Errorf("%d Grad calls for %d iterations", n, traced.iters)
	}
	if traced.profile == nil || plain.profile != nil {
		t.Error("only the traced run should carry a CPU profile")
	}
}

// fakeContext records sends and holds timers for the test to fire.
type fakeContext struct {
	sent   []wire.Message
	timers []func()
}

func (c *fakeContext) Self() node.ID                  { return node.WorkerID(0) }
func (c *fakeContext) Now() time.Time                 { return time.Now() }
func (c *fakeContext) Send(_ node.ID, m wire.Message) { c.sent = append(c.sent, m) }
func (c *fakeContext) Rand() *rand.Rand               { return rand.New(rand.NewSource(1)) }
func (c *fakeContext) Logf(string, ...any)            {}
func (c *fakeContext) After(_ time.Duration, f func()) node.CancelFunc {
	c.timers = append(c.timers, f)
	return func() {}
}

// scriptedWorker sends one pull round to two shards and one push at Init,
// and arms a timer.
type scriptedWorker struct {
	received int
	fired    bool
}

func (w *scriptedWorker) Init(ctx node.Context) {
	ctx.Send(node.ServerID(0), &msg.PullReq{Seq: 1})
	ctx.Send(node.ServerID(1), &msg.PullReq{Seq: 1})
	ctx.Send(node.ServerID(0), &msg.PushReq{Seq: 1})
	ctx.After(time.Millisecond, func() { w.fired = true })
}

func (w *scriptedWorker) Receive(node.ID, wire.Message) { w.received++ }

func TestTracedHandlerMatchesResponses(t *testing.T) {
	inner := &scriptedWorker{}
	ctx := &fakeContext{}
	h := newTracedHandler(inner)
	h.Init(ctx)
	if len(ctx.sent) != 3 {
		t.Fatalf("decorated context forwarded %d sends, want 3", len(ctx.sent))
	}
	h.Receive(node.ServerID(0), &msg.PullResp{Seq: 1})
	h.Receive(node.ServerID(1), &msg.PullResp{Seq: 1})
	h.Receive(node.ServerID(1), &msg.PushAck{Seq: 1}) // no push went to server/1
	h.Receive(node.ServerID(0), &msg.PushAck{Seq: 1})
	h.Receive(node.ServerID(0), &msg.PushAck{Seq: 1}) // duplicate
	if inner.received != 5 || h.msgs != 5 {
		t.Errorf("inner saw %d messages, handler counted %d, want 5", inner.received, h.msgs)
	}
	if len(h.pullRTT) != 2 || len(h.pushRTT) != 1 {
		t.Errorf("%d pull and %d push round trips, want 2 and 1", len(h.pullRTT), len(h.pushRTT))
	}
	if h.pushes != 1 || h.acks != 1 || len(h.pushSent) != 0 {
		t.Errorf("pushes %d, acks %d, outstanding %d; want 1, 1, 0", h.pushes, h.acks, len(h.pushSent))
	}
	busy := h.busy
	for _, f := range ctx.timers {
		f()
	}
	if !inner.fired || h.busy < busy {
		t.Error("timer callback did not run through the decorator")
	}
}

func TestLiveWorkloadTraced(t *testing.T) {
	lw := liveWorkload{workers: 2, servers: 2, budget: 300, compute: time.Microsecond, timeout: 30 * time.Second}
	st := runJob(t, lw, 3, true)
	if st.iters != 600 {
		t.Errorf("%d iterations, want 600", st.iters)
	}
	var pushes, rtts int64
	for _, th := range st.live {
		pushes += th.pushes
		rtts += int64(len(th.pushRTT))
	}
	// Each iteration pushes to both shards.
	if pushes != 2*st.iters || rtts != pushes {
		t.Errorf("%d pushes and %d push round trips for %d iterations", pushes, rtts, st.iters)
	}
}

// TestMetricNamesMatchBenchmarkJSON: each mode prints exactly the metrics
// BENCHMARK.json declares for it, with the declared units.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not defined", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v; the program defines %d workloads", names, len(workloads))
	}
	for _, mode := range []struct {
		traced bool
		want   []struct{ Name, Unit string }
	}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
		res, err := bench(smallDES, 2, time.Millisecond, mode.traced)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
			t.Fatalf("traced=%v: correct %v, %d attempted, %d failed", mode.traced, res.Correct, res.Attempted, res.Failed)
		}
		var got []string
		for k := range res.Metrics {
			got = append(got, k)
		}
		sort.Strings(got)
		if len(got) != len(mode.want) {
			t.Errorf("traced=%v: program prints %v", mode.traced, got)
		}
		for _, m := range mode.want {
			if pm, ok := res.Metrics[m.Name]; !ok || pm.Unit != m.Unit {
				t.Errorf("traced=%v: metric %s: program prints %+v (present %v), BENCHMARK.json says unit %q",
					mode.traced, m.Name, pm, ok, m.Unit)
			}
		}
	}
}
