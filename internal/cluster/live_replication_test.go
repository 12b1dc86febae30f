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
	"specsync/internal/replica"
	"specsync/internal/scheme"
	"specsync/internal/worker"
)

// TestLiveReplicatedFailover runs the replicated planes on the live
// (wall-clock, goroutine-per-node) runtime: one shard with one warm backup
// and a scheduler with one standby. The plan kills the shard primary and
// then the scheduler for good; the backup must be promoted with zero lost
// pushes and the standby must win an election and keep serving the workers
// before any of them trips the degraded-mode failure detector.
func TestLiveReplicatedFailover(t *testing.T) {
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
	makeShard := func(backup bool) *ps.Server {
		opt, err := optimizer.NewSGD(optimizer.SGDConfig{Schedule: wl.Schedule, Clip: wl.Clip}, ranges[0].Len())
		if err != nil {
			t.Fatal(err)
		}
		srv, err := ps.New(ps.Config{Range: ranges[0], Init: initVec, Optimizer: opt, Replica: backup})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	primary := makeShard(false)
	backup := makeShard(true)
	primary.SetBackups([]node.ID{node.ReplicaID(0, 1)})

	workers := make([]*worker.Worker, 2)
	for i := range workers {
		workers[i], err = worker.New(worker.Config{
			Index:            i,
			Shards:           ranges,
			Model:            wl.Model,
			Scheme:           sc,
			Compute:          worker.ComputeModel{Base: iterTime, Speed: 1},
			NumWorkers:       2,
			RetryAfter:       100 * time.Millisecond,
			SchedulerTimeout: 2 * time.Second,
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
	leader, err := replica.NewLeader(replica.LeaderConfig{
		Sched:          sched,
		Standbys:       1,
		ReplicateEvery: 40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	standby, err := replica.NewStandby(replica.StandbyConfig{
		Index:           1,
		Standbys:        1,
		Workers:         2,
		ElectionTimeout: 300 * time.Millisecond,
		ReplicateEvery:  40 * time.Millisecond,
		MakeScheduler:   makeSched,
		Faults:          fm,
	})
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	serving := primary
	plan := &faults.Plan{Events: []faults.Event{
		{Kind: faults.KindCrashServer, Node: 0, At: 150 * time.Millisecond, RestartAfter: 100 * time.Millisecond},
		// The scheduler stays down; the standby owns recovery.
		{Kind: faults.KindCrashScheduler, At: 600 * time.Millisecond},
	}}

	net, err := live.NewNetwork(live.NetworkConfig{Registry: msg.Registry(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.AddNode(node.ServerID(0), primary); err != nil {
		t.Fatal(err)
	}
	if err := net.AddNode(node.ReplicaID(0, 1), backup); err != nil {
		t.Fatal(err)
	}
	for i, wk := range workers {
		if err := net.AddNode(node.WorkerID(i), wk); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.AddNode(node.Scheduler, leader); err != nil {
		t.Fatal(err)
	}
	if err := net.AddNode(node.StandbyID(1), standby); err != nil {
		t.Fatal(err)
	}
	net.Start()
	defer net.Close()
	inj, err := faults.Attach(net, faults.Options{
		Plan:       plan,
		NumWorkers: 2,
		NumServers: 1,
		Faults:     fm,
		Replicas:   1,
		Standbys:   1,
		Server: func(int) *ps.Server {
			mu.Lock()
			defer mu.Unlock()
			return serving
		},
		ReplicaServer: func(int, int) *ps.Server { return backup },
		OnPromote: func(_ int, srv *ps.Server) {
			mu.Lock()
			serving = srv
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	waitFor(t, "the backup to be promoted to shard primary", func() bool {
		return fm.Stats().Promotions == 1
	})
	itersAtPromote := workers[0].IterationsDone() + workers[1].IterationsDone()
	waitFor(t, "training progress on the promoted shard", func() bool {
		return workers[0].IterationsDone()+workers[1].IterationsDone() > itersAtPromote
	})
	waitFor(t, "the standby to win the election", func() bool {
		return standby.Role() == replica.RoleLeader
	})
	itersAtElect := workers[0].IterationsDone() + workers[1].IterationsDone()
	waitFor(t, "training progress under the elected scheduler", func() bool {
		return workers[0].IterationsDone()+workers[1].IterationsDone() > itersAtElect
	})

	if errs := inj.Errs(); len(errs) != 0 {
		t.Fatalf("injector errors: %v", errs)
	}
	st := fm.Stats()
	if st.LostPushes != 0 {
		t.Errorf("lost pushes = %d, want 0 under replication", st.LostPushes)
	}
	if st.Promotions != 1 {
		t.Errorf("promotions = %d, want 1", st.Promotions)
	}
	if st.Elections < 1 {
		t.Errorf("elections = %d, want >= 1", st.Elections)
	}
	if st.SchedulerRestarts != 0 {
		t.Errorf("scheduler restarts = %d, want 0 (the standby owns recovery)", st.SchedulerRestarts)
	}
	if st.DegradedEnters != 0 {
		t.Errorf("degraded enters = %d, want 0 (failover should beat the workers' timeout)", st.DegradedEnters)
	}
	if got := backup.Replica(); got {
		t.Error("promoted backup still reports replica mode")
	}
}
