package faults

import (
	"sync"
	"testing"
	"time"

	"specsync/internal/des"
	"specsync/internal/live"
	"specsync/internal/metrics"
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/optimizer"
	"specsync/internal/ps"
	"specsync/internal/tensor"
	"specsync/internal/trace"
	"specsync/internal/wire"
)

// starter counts msg.Start receipts (a restarted worker must get a fresh
// Start) and pushes a gradient to the server once per Start. The live
// runtime drives it from network goroutines, so its counters are locked.
type starter struct {
	ctx node.Context

	mu     sync.Mutex
	starts int
	acks   int
}

func (h *starter) Init(ctx node.Context) { h.ctx = ctx }

func (h *starter) Receive(from node.ID, m wire.Message) {
	switch m.(type) {
	case *msg.Start:
		h.mu.Lock()
		h.starts++
		seq := uint64(h.starts)
		h.mu.Unlock()
		h.ctx.Send(node.ServerID(0), &msg.PushReq{Seq: seq, Iter: 1, Dense: []float64{1, 1}})
	case *msg.PushAck:
		h.mu.Lock()
		h.acks++
		h.mu.Unlock()
	}
}

func (h *starter) counts() (starts, acks int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.starts, h.acks
}

func newShard(t *testing.T) *ps.Server {
	t.Helper()
	opt, err := optimizer.NewSGD(optimizer.SGDConfig{Schedule: optimizer.Const(0.5)}, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ps.New(ps.Config{
		Range:     ps.Range{Lo: 0, Hi: 2},
		Init:      tensor.Vec{1, 2},
		Optimizer: opt,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// testRuntime is one runtime under test plus the harness calls that differ
// between them: how nodes are added and started, and how the test waits.
type testRuntime struct {
	node.Runtime
	add   func(id node.ID, h node.Handler) error
	start func()
	// await drives the runtime until cond holds (virtual time under the
	// simulator, wall time under the live runtime) and reports whether it
	// did within 5 seconds.
	await func(cond func() bool) bool
}

// runtimes builds each runtime under test, empty and not yet started.
var runtimes = map[string]func(t *testing.T) testRuntime{
	"des": func(t *testing.T) testRuntime {
		sim, err := des.New(des.Config{Seed: 1, Registry: msg.Registry()})
		if err != nil {
			t.Fatal(err)
		}
		return testRuntime{Runtime: sim, add: sim.AddNode, start: sim.Init,
			await: func(cond func() bool) bool {
				deadline := sim.Now().Add(5 * time.Second)
				for !cond() {
					if sim.Now().After(deadline) || !sim.Step() {
						return false
					}
				}
				return true
			}}
	},
	"live": func(t *testing.T) testRuntime {
		net, err := live.NewNetwork(live.NetworkConfig{Registry: msg.Registry(), Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(net.Close)
		return testRuntime{Runtime: net, add: net.AddNode, start: net.Start,
			await: func(cond func() bool) bool {
				deadline := time.Now().Add(5 * time.Second)
				for !cond() {
					if time.Now().After(deadline) {
						return false
					}
					time.Sleep(2 * time.Millisecond)
				}
				return true
			}}
	},
}

// TestInjectorCrashCheckpointRestore runs one crash/restart/checkpoint-restore
// plan through both runtimes and expects the same fault accounting from each.
func TestInjectorCrashCheckpointRestore(t *testing.T) {
	for name, build := range runtimes {
		build := build
		t.Run(name, func(t *testing.T) {
			rt := build(t)
			srv := newShard(t)
			wk := &starter{}
			if err := rt.add(node.ServerID(0), srv); err != nil {
				t.Fatal(err)
			}
			if err := rt.add(node.WorkerID(0), wk); err != nil {
				t.Fatal(err)
			}
			rt.start()
			// The first push must land before the server crash.
			if err := rt.Inject(node.Scheduler, node.WorkerID(0), &msg.Start{}); err != nil {
				t.Fatal(err)
			}
			if !rt.await(func() bool { _, acks := wk.counts(); return acks == 1 }) {
				t.Fatal("initial push never acknowledged")
			}

			collector := trace.NewCollector()
			fm := metrics.NewFaults(msg.IsControl)
			var mu sync.Mutex
			current := srv
			var currentWk node.Handler = wk
			plan := &Plan{Events: []Event{
				// Server crash at 100ms, back at 200ms from the checkpoint.
				{Kind: KindCrashServer, At: 100 * time.Millisecond, Node: 0, RestartAfter: 100 * time.Millisecond},
				// Worker crash at 300ms, back at 400ms with a fresh Start.
				{Kind: KindCrashWorker, At: 300 * time.Millisecond, Node: 0, RestartAfter: 100 * time.Millisecond},
			}}
			inj, err := Attach(rt, Options{
				Plan:       plan,
				NumWorkers: 1,
				NumServers: 1,
				Tracer:     collector,
				Faults:     fm,
				NewWorker:  func(i int) (node.Handler, error) { return &starter{}, nil },
				NewServer:  func(shard int) (*ps.Server, error) { return newShard(t), nil },
				// Once the crashed incarnation has quiesced, reading its
				// state stands in for the checkpoint it last wrote.
				Checkpoint: func(shard int) (ps.Snapshot, bool) {
					if err := rt.Quiesce(node.ServerID(shard)); err != nil {
						t.Error(err)
					}
					mu.Lock()
					defer mu.Unlock()
					fm.RecordCheckpoint()
					return current.Snapshot(), true
				},
				OnServerRestart: func(shard int, s *ps.Server) {
					mu.Lock()
					current = s
					mu.Unlock()
				},
				OnWorkerRestart: func(i int, h node.Handler) {
					mu.Lock()
					currentWk = h
					mu.Unlock()
				},
			})
			if err != nil {
				t.Fatal(err)
			}

			// Wait for the whole plan: the restarted worker got its own
			// Start, pushed to the restored server and got its ack.
			ok := rt.await(func() bool {
				mu.Lock()
				h := currentWk
				mu.Unlock()
				fresh, isStarter := h.(*starter)
				if !isStarter || fresh == wk {
					return false
				}
				starts, acks := fresh.counts()
				return starts == 1 && acks == 1
			})
			if !ok {
				t.Fatal("restarted worker never completed a push to the restored server")
			}

			if errs := inj.Errs(); len(errs) != 0 {
				t.Fatalf("injector errors: %v", errs)
			}
			st := fm.Stats()
			if st.Crashes != 2 || st.Restarts != 2 || st.Restores != 1 {
				t.Errorf("crashes/restarts/restores = %d/%d/%d, want 2/2/1", st.Crashes, st.Restarts, st.Restores)
			}
			if st.Checkpoints == 0 {
				t.Error("the injector never read a checkpoint for the restore")
			}
			if collector.Count(trace.KindCrash) != 2 || collector.Count(trace.KindRecover) != 2 {
				t.Errorf("trace crash/recover = %d/%d, want 2/2",
					collector.Count(trace.KindCrash), collector.Count(trace.KindRecover))
			}

			// Quiesce the restored shard before touching its state directly.
			if err := rt.Crash(node.ServerID(0)); err != nil {
				t.Fatal(err)
			}
			if err := rt.Quiesce(node.ServerID(0)); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			defer mu.Unlock()
			if current == srv {
				t.Error("server was not replaced on restart")
			}
			// Version 2: one restored from the checkpoint, one from the
			// restarted worker's push. The restored parameters carry the
			// pre-crash update without the shard replaying any push.
			if v := current.Version(); v != 2 {
				t.Errorf("final server version = %d, want 2", v)
			}
			if p := current.Params(); p[0] >= 1 {
				t.Errorf("restored params[0] = %v, want < 1 (post-update state)", p[0])
			}
		})
	}
}

func TestAttachSimValidation(t *testing.T) {
	sim, err := des.New(des.Config{Seed: 1, Registry: msg.Registry()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Attach(sim, Options{}); err == nil {
		t.Error("Attach accepted a nil plan")
	}
	bad := &Plan{Events: []Event{{Kind: KindCrashWorker, Node: 5}}}
	if _, err := Attach(sim, Options{Plan: bad, NumWorkers: 2}); err == nil {
		t.Error("Attach accepted an out-of-range worker")
	}
	restart := &Plan{Events: []Event{{Kind: KindCrashWorker, Node: 0, RestartAfter: time.Second}}}
	if _, err := Attach(sim, Options{Plan: restart, NumWorkers: 1}); err == nil {
		t.Error("Attach accepted a worker restart without NewWorker")
	}
	replicated := &Plan{Events: []Event{{Kind: KindCrashServer, Node: 0, RestartAfter: time.Second}}}
	if _, err := Attach(sim, Options{Plan: replicated, NumServers: 1, Replicas: 1}); err == nil {
		t.Error("Attach accepted replica promotion without the Server accessor")
	}
}
