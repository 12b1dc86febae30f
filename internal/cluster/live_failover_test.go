package cluster

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"specsync/internal/core"
	"specsync/internal/faults"
	"specsync/internal/live"
	"specsync/internal/metrics"
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/optimizer"
	"specsync/internal/ps"
	"specsync/internal/scheme"
	"specsync/internal/worker"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLiveSchedulerDeathAndRecovery runs a real 2-worker cluster on the live
// in-process runtime, kills the scheduler mid-training, and requires the
// workers to (1) keep iterating while it is gone, (2) flag degraded mode, and
// (3) return to the centralized path once a restarted incarnation restores a
// checkpoint and completes the StateReport handshake.
func TestLiveSchedulerDeathAndRecovery(t *testing.T) {
	wl, err := NewTiny(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sc := scheme.Config{Base: scheme.ASP, Spec: scheme.SpecAdaptive}
	ranges, err := ps.ShardRanges(wl.Model.Dim(), 1)
	if err != nil {
		t.Fatal(err)
	}
	fm := metrics.NewFaults(msg.IsControl)
	iterTime := 20 * time.Millisecond

	initVec := wl.Model.Init(rand.New(rand.NewSource(1 ^ 0x1217)))
	opt, err := optimizer.NewSGD(optimizer.SGDConfig{Schedule: wl.Schedule, Clip: wl.Clip}, ranges[0].Len())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ps.New(ps.Config{Range: ranges[0], Init: initVec, Optimizer: opt})
	if err != nil {
		t.Fatal(err)
	}

	workers := make([]*worker.Worker, 2)
	for i := range workers {
		workers[i], err = worker.New(worker.Config{
			Index:            i,
			Shards:           ranges,
			Model:            wl.Model,
			Scheme:           sc,
			Compute:          worker.ComputeModel{Base: iterTime, Speed: 1},
			NumWorkers:       2,
			SchedulerTimeout: 100 * time.Millisecond,
			Faults:           fm,
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	makeSched := func(gen int64) (*core.Scheduler, error) {
		return core.NewScheduler(core.SchedulerConfig{
			Workers:     2,
			Scheme:      sc,
			InitialSpan: iterTime,
			Generation:  gen,
			BeaconEvery: 40 * time.Millisecond,
			Faults:      fm,
		})
	}
	sched, err := makeSched(0)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	current := sched
	plan := &faults.Plan{Events: []faults.Event{
		{Kind: faults.KindCrashScheduler, At: 150 * time.Millisecond, RestartAfter: 400 * time.Millisecond},
	}}

	net, err := live.NewNetwork(live.NetworkConfig{Registry: msg.Registry(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.AddNode(node.ServerID(0), srv); err != nil {
		t.Fatal(err)
	}
	for i, wk := range workers {
		if err := net.AddNode(node.WorkerID(i), wk); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.AddNode(node.Scheduler, sched); err != nil {
		t.Fatal(err)
	}
	net.Start()
	defer net.Close()
	inj, err := faults.Attach(net, faults.Options{
		Plan:         plan,
		NumWorkers:   2,
		NumServers:   1,
		Faults:       fm,
		NewScheduler: makeSched,
		// The crashed incarnation's event loop is stopped, so reading its
		// state stands in for a checkpoint read from durable storage.
		SchedulerCheckpoint: func() (core.SchedulerSnapshot, bool) {
			mu.Lock()
			defer mu.Unlock()
			return current.Snapshot(), true
		},
		OnSchedulerRestart: func(s *core.Scheduler) {
			mu.Lock()
			current = s
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	waitFor(t, "both workers to enter degraded mode", func() bool {
		return workers[0].Degraded() && workers[1].Degraded()
	})
	itersAtDegrade := workers[0].IterationsDone() + workers[1].IterationsDone()
	waitFor(t, "training progress while the scheduler is down", func() bool {
		if !workers[0].Degraded() && !workers[1].Degraded() {
			t.Fatal("scheduler came back before degraded-mode progress was observed")
		}
		return workers[0].IterationsDone()+workers[1].IterationsDone() > itersAtDegrade
	})
	waitFor(t, "both workers to recover after the scheduler restart", func() bool {
		return !workers[0].Degraded() && !workers[1].Degraded()
	})
	itersAtRecover := workers[0].IterationsDone() + workers[1].IterationsDone()
	waitFor(t, "training progress under the restarted scheduler", func() bool {
		return workers[0].IterationsDone()+workers[1].IterationsDone() > itersAtRecover
	})

	if errs := inj.Errs(); len(errs) != 0 {
		t.Fatalf("injector errors: %v", errs)
	}
	st := fm.Stats()
	if st.SchedulerCrashes != 1 || st.SchedulerRestarts != 1 || st.SchedulerRestores != 1 {
		t.Errorf("scheduler crashes/restarts/restores = %d/%d/%d, want 1/1/1",
			st.SchedulerCrashes, st.SchedulerRestarts, st.SchedulerRestores)
	}
	if st.StateReports < 2 {
		t.Errorf("state reports = %d, want >= 2 (one per worker)", st.StateReports)
	}
	if st.DegradedEnters < 2 || st.DegradedRecovers < 2 {
		t.Errorf("degraded enters/recovers = %d/%d, want >= 2 each", st.DegradedEnters, st.DegradedRecovers)
	}
}
