// Command specsync-node runs one SpecSync cluster node (server shard,
// worker, or scheduler) as a standalone process over TCP — the deployment
// shape of the paper's MXNet implementation. Every process is given the
// same topology flags so it can derive the shard layout and peer address
// book deterministically.
//
// Example 2-worker cluster on one machine (run each in its own terminal):
//
//	specsync-node -role server -index 0 -workers 2 -servers 1 -base-port 7000
//	specsync-node -role scheduler        -workers 2 -servers 1 -base-port 7000
//	specsync-node -role worker -index 0  -workers 2 -servers 1 -base-port 7000
//	specsync-node -role worker -index 1  -workers 2 -servers 1 -base-port 7000
//
// Ports are assigned as base-port+0..servers-1 for servers, then workers,
// then the scheduler, then standby schedulers (-standby-schedulers), then
// shard replicas (-replicas, shard-major). The scheduler broadcasts Start
// once it boots, so start it after the servers and workers are listening
// (or restart stragglers — workers also begin on the first Start they see).
//
// High availability: give every process the same -standby-schedulers and
// -replicas counts, then additionally run
//
//	specsync-node -role standby -index 1 ... -standby-schedulers 1
//	specsync-node -role replica -index 0 -replica 1 ... -replicas 1
//
// The scheduler ships its state to the standbys and each server forwards
// acknowledged pushes to its replicas; if the scheduler process dies, a
// standby elects itself, announces the new term, and the workers follow it.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"specsync/internal/cluster"
	"specsync/internal/codec"
	"specsync/internal/core"
	"specsync/internal/live"
	"specsync/internal/metrics"
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/obs"
	"specsync/internal/optimizer"
	"specsync/internal/ps"
	"specsync/internal/replica"
	"specsync/internal/scheme"
	"specsync/internal/stragglers"
	"specsync/internal/switcher"
	"specsync/internal/worker"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "specsync-node:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("specsync-node", flag.ContinueOnError)
	var (
		role       = fs.String("role", "", "node role: server, worker, or scheduler")
		index      = fs.Int("index", 0, "index within the role (server/worker)")
		workers    = fs.Int("workers", 2, "total number of workers")
		servers    = fs.Int("servers", 1, "total number of server shards")
		basePort   = fs.Int("base-port", 7000, "first port of the contiguous port block")
		host       = fs.String("host", "127.0.0.1", "host all nodes share")
		seed       = fs.Int64("seed", 1, "master seed (must match across nodes)")
		workload   = fs.String("workload", "tiny", "workload: mf, cifar10, imagenet, tiny")
		schemeName = fs.String("scheme", "adaptive", "scheme (must match across nodes): asp, bsp, ssp, adaptive, cherry, sync-switch, abs, psp")
		switchAt   = fs.Int("switch-at", 5, "sync-switch scheme: epoch of the BSP→ASP handover")
		pspBeta    = fs.Float64("psp-beta", 0.75, "psp scheme: barrier quorum as a fraction of live workers")
		metaScheme = fs.Bool("meta-scheme", false, "straggler-driven BSP↔SSP policy (must match across nodes; requires a plain -scheme asp/bsp/ssp)")

		stragglerPlanPath = fs.String("straggler-plan", "", "JSON straggler-plan file (see internal/stragglers); workers run their scripted slowdowns, the scheduler scores its detector against the plan")
		iterTime   = fs.Duration("iter", 500*time.Millisecond, "nominal compute time per iteration")
		maxIters   = fs.Int64("iters", 200, "worker iterations before stopping (0 = run forever)")
		debug      = fs.Bool("debug", false, "verbose node logging")

		metricsAddr = fs.String("metrics-addr", "", "serve /metrics, /healthz, /clusterz, /stragglerz and /debugz on this address (\":0\" picks a port)")
		pprofOn     = fs.Bool("pprof", false, "also mount net/http/pprof under /debug/pprof/ on -metrics-addr")

		codecName = fs.String("codec", "raw", "gradient codec (must match across nodes): "+codec.Names)
		topkFrac  = fs.Float64("topk", codec.DefaultTopKFrac, "topk codec: fraction of entries kept")
		q8Block   = fs.Int("q8-block", codec.DefaultQ8Block, "q8 codec: values per quantization block")

		checkpointDir   = fs.String("checkpoint-dir", "", "server/scheduler role: directory for checkpoints; restored on boot if present")
		checkpointEvery = fs.Duration("checkpoint-every", 10*time.Second, "server/scheduler role: checkpoint period (0 disables; needs -checkpoint-dir)")
		heartbeatEvery  = fs.Duration("heartbeat", 0, "worker role: liveness heartbeat period (0 disables)")
		retryAfter      = fs.Duration("retry-after", 0, "worker role: re-issue pulls/pushes unanswered for this long (0 disables)")
		livenessTimeout = fs.Duration("liveness-timeout", 0, "scheduler role: evict workers silent for this long (0 disables)")
		schedTimeout    = fs.Duration("scheduler-timeout", 0, "worker role: enter degraded mode when the scheduler is silent this long (0 disables)")
		beaconEvery     = fs.Duration("beacon-every", 0, "scheduler role: broadcast liveness beacons on this period (0 disables)")
		generation      = fs.Int64("generation", 0, "scheduler role: incarnation number; >0 means this process replaces a crashed scheduler and asks workers for state")

		standbySched   = fs.Int("standby-schedulers", 0, "standby scheduler incarnations in the topology (every process must agree); the scheduler ships state snapshots to them and a standby takes over if it dies")
		replicas       = fs.Int("replicas", 0, "warm backups per parameter shard in the topology (every process must agree); servers forward acknowledged pushes to them")
		replicaSlot    = fs.Int("replica", 1, "replica role: 1-based backup slot within shard -index")
		replicateEvery = fs.Duration("replicate-every", 250*time.Millisecond, "scheduler/standby roles: snapshot-shipping period, doubling as the leader liveness heartbeat")
		electionAfter  = fs.Duration("election-timeout", 2*time.Second, "standby role: base leader-silence timeout before calling an election (randomized to [T,2T))")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers < 1 || *servers < 1 {
		return fmt.Errorf("need at least 1 worker and 1 server")
	}

	// Deterministic shared topology.
	addr := func(id node.ID) string {
		port := *basePort
		if i := node.ServerIndex(id); i >= 0 {
			port += i
		} else if i := node.WorkerIndex(id); i >= 0 {
			port += *servers + i
		} else if i := node.StandbyIndex(id); i >= 1 {
			port += *servers + *workers + i // scheduler/i follows the leader slot
		} else if s, r := node.ReplicaOf(id); s >= 0 {
			port += *servers + *workers + 1 + *standbySched + s*(*replicas) + (r - 1)
		} else {
			port += *servers + *workers // scheduler
		}
		return fmt.Sprintf("%s:%d", *host, port)
	}
	peers := map[node.ID]string{}
	var all []node.ID
	for i := 0; i < *servers; i++ {
		all = append(all, node.ServerID(i))
	}
	for i := 0; i < *workers; i++ {
		all = append(all, node.WorkerID(i))
	}
	all = append(all, node.Scheduler)
	for i := 1; i <= *standbySched; i++ {
		all = append(all, node.StandbyID(i))
	}
	for s := 0; s < *servers; s++ {
		for r := 1; r <= *replicas; r++ {
			all = append(all, node.ReplicaID(s, r))
		}
	}
	for _, id := range all {
		peers[id] = addr(id)
	}

	wl, err := buildWorkload(*workload, *workers, *seed)
	if err != nil {
		return err
	}
	wl.IterTime = *iterTime
	sc, err := buildScheme(*schemeName, wl, *switchAt, *pspBeta)
	if err != nil {
		return err
	}
	// Workers self-measure work spans whenever the discipline can change at
	// runtime or a straggler plan needs detection; every process must agree
	// or the scheduler would starve.
	var stragglerPlan *stragglers.Plan
	var stragglerScripts [][]worker.SpeedWindow
	if *stragglerPlanPath != "" {
		data, err := os.ReadFile(*stragglerPlanPath)
		if err != nil {
			return err
		}
		if stragglerPlan, err = stragglers.ParseJSON(data); err != nil {
			return err
		}
		if stragglerScripts, err = stragglerPlan.Scripts(*workers); err != nil {
			return err
		}
		if stragglerPlan.HasCongest() {
			// The TCP transport has no bandwidth model to scale; congest
			// episodes only act under the simulator (link penalty).
			fmt.Fprintln(os.Stderr, "specsync-node: warning: congest episodes in the plan are ignored on the TCP transport")
		}
	}
	dynamicScheme := sc.DynamicBase() || *metaScheme || !stragglerPlan.Empty()
	if *metaScheme && (sc.Variant != scheme.VariantNone || sc.Spec != scheme.SpecOff) {
		return fmt.Errorf("-meta-scheme requires a plain base scheme (-scheme asp/bsp/ssp)")
	}
	var switcherCfg *switcher.Config
	if *metaScheme {
		switcherCfg = &switcher.Config{}
	}
	ranges, err := ps.ShardRanges(wl.Model.Dim(), *servers)
	if err != nil {
		return err
	}

	ccfg := codec.Config{Name: *codecName, TopKFrac: *topkFrac, Q8Block: *q8Block}
	if err := ccfg.Validate(); err != nil {
		return err
	}

	// One observability instance per process; role-specific handles feed the
	// same registry that -metrics-addr exposes. Outbound wire bytes are
	// accounted per message kind with wall-clock throughput windows, and the
	// codec tap adds per-{kind,codec} bytes-on-wire counters.
	o := obs.New(obs.Options{})
	transfer := metrics.NewTransfer(msg.IsControl)
	o.Registry().SetCollector("transfer", func(w io.Writer) {
		transfer.WritePrometheus(w, msg.Registry().Name)
	})
	codecStats := codec.NewStats(msg.CodecLabeler(ccfg.PushName(), ccfg.PullName()))
	o.Registry().SetCollector("codec", func(w io.Writer) {
		codecStats.WritePrometheus(w, msg.Registry().Name)
	})

	var id node.ID
	var handler node.Handler
	var shard *ps.Server      // set for the server role (checkpoint loop)
	var sched *core.Scheduler // set for the scheduler role (checkpoint loop)
	var wkr *worker.Worker    // set for the worker role (codec-residual checkpoints)
	var ckptPath string
	switch *role {
	case "server":
		if *index < 0 || *index >= *servers {
			return fmt.Errorf("server index %d out of range", *index)
		}
		id = node.ServerID(*index)
		initRng := rand.New(rand.NewSource(*seed ^ 0x1217))
		initVec := wl.Model.Init(initRng)
		opt, err := optimizer.NewSGD(optimizer.SGDConfig{
			Schedule: wl.Schedule, Momentum: wl.Momentum, Clip: wl.Clip,
		}, ranges[*index].Len())
		if err != nil {
			return err
		}
		shard, err = ps.New(ps.Config{
			Range:      ranges[*index],
			Init:       initVec[ranges[*index].Lo:ranges[*index].Hi],
			Optimizer:  opt,
			Obs:        o.Server(*index),
			DeltaPull:  ccfg.UsesDelta(),
			CodecStats: codecStats,
		})
		if err != nil {
			return err
		}
		if *replicas > 0 {
			var backups []node.ID
			for r := 1; r <= *replicas; r++ {
				backups = append(backups, node.ReplicaID(*index, r))
			}
			shard.SetBackups(backups)
		}
		if *checkpointDir != "" {
			if err := os.MkdirAll(*checkpointDir, 0o755); err != nil {
				return err
			}
			ckptPath = filepath.Join(*checkpointDir, fmt.Sprintf("server-%d.ckpt", *index))
			if v, ok, err := restoreCheckpoint(shard, ckptPath); err != nil {
				return err
			} else if ok {
				fmt.Printf("server/%d: restored checkpoint version %d from %s\n", *index, v, ckptPath)
			}
		}
		handler = shard
	case "replica":
		if *index < 0 || *index >= *servers {
			return fmt.Errorf("replica shard index %d out of range", *index)
		}
		if *replicaSlot < 1 || *replicaSlot > *replicas {
			return fmt.Errorf("replica slot %d out of range 1..%d (set -replicas on every process)", *replicaSlot, *replicas)
		}
		id = node.ReplicaID(*index, *replicaSlot)
		initRng := rand.New(rand.NewSource(*seed ^ 0x1217))
		initVec := wl.Model.Init(initRng)
		opt, err := optimizer.NewSGD(optimizer.SGDConfig{
			Schedule: wl.Schedule, Momentum: wl.Momentum, Clip: wl.Clip,
		}, ranges[*index].Len())
		if err != nil {
			return err
		}
		backup, err := ps.New(ps.Config{
			Range:      ranges[*index],
			Init:       initVec[ranges[*index].Lo:ranges[*index].Hi],
			Optimizer:  opt,
			Replica:    true,
			Obs:        o.Server(*index),
			DeltaPull:  ccfg.UsesDelta(),
			CodecStats: codecStats,
		})
		if err != nil {
			return err
		}
		handler = backup
	case "worker":
		if *index < 0 || *index >= *workers {
			return fmt.Errorf("worker index %d out of range", *index)
		}
		id = node.WorkerID(*index)
		// Each worker plays only its own row of the plan's speed scripts;
		// windows are measured from Init, so co-started processes line up.
		var script []worker.SpeedWindow
		if stragglerScripts != nil {
			script = stragglerScripts[*index]
		}
		wkr, err = worker.New(worker.Config{
			Index:            *index,
			Shards:           ranges,
			Model:            wl.Model,
			Scheme:           sc,
			Compute:          worker.ComputeModel{Base: wl.IterTime, Speed: 1, JitterSigma: wl.JitterSigma},
			Script:           script,
			MaxIters:         *maxIters,
			NumWorkers:       *workers,
			HeartbeatEvery:   *heartbeatEvery,
			RetryAfter:       *retryAfter,
			SchedulerTimeout: *schedTimeout,
			Codec:            ccfg,
			CodecStats:       codecStats,
			ReportSpans:      dynamicScheme,
			Obs:              o.Worker(*index),
		})
		if err != nil {
			return err
		}
		// Lossy push codecs carry an error-feedback residual; checkpoint it so
		// a restarted worker does not silently drop pending gradient mass.
		if *checkpointDir != "" && wkr.CodecState() != nil {
			if err := os.MkdirAll(*checkpointDir, 0o755); err != nil {
				return err
			}
			ckptPath = filepath.Join(*checkpointDir, fmt.Sprintf("worker-%d.codec.ckpt", *index))
			if ok, err := restoreResidualCheckpoint(wkr, ckptPath); err != nil {
				return err
			} else if ok {
				fmt.Printf("worker/%d: restored codec residual state from %s\n", *index, ckptPath)
			}
		}
		handler = wkr
	case "scheduler":
		id = node.Scheduler
		if !stragglerPlan.Empty() {
			// Ground truth for /stragglerz detector scoring: precision and
			// recall are measured against the plan's scripted victims.
			o.Scheduler().SetStragglerTruth(stragglerPlan.Targets())
		}
		sched, err = core.NewScheduler(core.SchedulerConfig{
			Workers:         *workers,
			Scheme:          sc,
			Switcher:        switcherCfg,
			InitialSpan:     wl.IterTime,
			LivenessTimeout: *livenessTimeout,
			Generation:      *generation,
			BeaconEvery:     *beaconEvery,
			TrackSpans:      !stragglerPlan.Empty(),
			Obs:             o.Scheduler(),
		})
		if err != nil {
			return err
		}
		if *checkpointDir != "" {
			if err := os.MkdirAll(*checkpointDir, 0o755); err != nil {
				return err
			}
			ckptPath = filepath.Join(*checkpointDir, "scheduler.ckpt")
			if gen, ok, err := restoreSchedulerCheckpoint(sched, ckptPath); err != nil {
				return err
			} else if ok {
				fmt.Printf("scheduler: restored checkpoint (written by generation %d) from %s\n", gen, ckptPath)
			}
		}
		handler = sched
		if *standbySched > 0 {
			ldr, err := replica.NewLeader(replica.LeaderConfig{
				Sched:          sched,
				Standbys:       *standbySched,
				ReplicateEvery: *replicateEvery,
				Term:           *generation,
				Obs:            o,
			})
			if err != nil {
				return err
			}
			handler = ldr
		}
	case "standby":
		if *index < 1 || *index > *standbySched {
			return fmt.Errorf("standby index %d out of range 1..%d (set -standby-schedulers on every process)", *index, *standbySched)
		}
		id = node.StandbyID(*index)
		sb, err := replica.NewStandby(replica.StandbyConfig{
			Index:           *index,
			Standbys:        *standbySched,
			Workers:         *workers,
			ElectionTimeout: *electionAfter,
			ReplicateEvery:  *replicateEvery,
			MakeScheduler: func(gen int64) (*core.Scheduler, error) {
				if !stragglerPlan.Empty() {
					o.Scheduler().SetStragglerTruth(stragglerPlan.Targets())
				}
				return core.NewScheduler(core.SchedulerConfig{
					Workers:         *workers,
					Scheme:          sc,
					Switcher:        switcherCfg,
					InitialSpan:     wl.IterTime,
					LivenessTimeout: *livenessTimeout,
					Generation:      gen,
					BeaconEvery:     *beaconEvery,
					TrackSpans:      !stragglerPlan.Empty(),
					Obs:             o.Scheduler(),
				})
			},
			Obs: o,
		})
		if err != nil {
			return err
		}
		handler = sb
	default:
		return fmt.Errorf("role must be server, worker, scheduler, standby, or replica (got %q)", *role)
	}

	listen := peers[id]
	delete(peers, id)
	h, err := live.NewTCPHost(live.TCPHostConfig{
		ID:         id,
		Handler:    handler,
		ListenAddr: listen,
		Peers:      peers,
		Registry:   msg.Registry(),
		Seed:       *seed,
		Transfer:   codecStats.Tap(transfer),
		Metrics:    o.Registry(),
		Debug:      *debug,
	})
	if err != nil {
		return err
	}
	defer h.Close()
	fmt.Printf("%s listening on %s (%d workers, %d servers, scheme %s, workload %s)\n",
		id, listen, *workers, *servers, sc.Name(), wl.Name)

	if *metricsAddr != "" {
		cfgHTTP := obs.HTTPConfig{
			Registry: o.Registry(),
			Health:   healthFunc(id, handler),
			Flight:   o.FlightDump,
			Pprof:    *pprofOn,
		}
		switch handler.(type) {
		case *core.Scheduler, *replica.Leader, *replica.Standby:
			cfgHTTP.Cluster = o.ClusterSnapshot
			cfgHTTP.Stragglers = o.StragglerSnapshot
		}
		srv, maddr, err := obs.Serve(*metricsAddr, obs.NewHandler(cfgHTTP))
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("%s metrics on http://%s/metrics\n", id, maddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	// Periodic durable checkpoints: server and scheduler state, and the
	// worker's codec residual when a lossy push codec is active. The snapshot
	// is taken on the node's event loop (h.Do) so it never races with
	// applies; only the file write happens out here.
	var ckptTick <-chan time.Time
	if ckptPath != "" && *checkpointEvery > 0 {
		ct := time.NewTicker(*checkpointEvery)
		defer ct.Stop()
		ckptTick = ct.C
	}

	// Periodic status for interactive runs.
	ticker := time.NewTicker(5 * time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-sig:
			fmt.Println("shutting down")
			return nil
		case <-ckptTick:
			switch {
			case shard != nil:
				var snap ps.Snapshot
				h.Do(func() { snap = shard.Snapshot() })
				if err := writeCheckpoint(ckptPath, snap); err != nil {
					fmt.Fprintf(os.Stderr, "%s: checkpoint failed: %v\n", id, err)
				} else if *debug {
					fmt.Printf("%s: checkpointed version %d\n", id, snap.Version)
				}
			case sched != nil:
				var snap core.SchedulerSnapshot
				h.Do(func() { snap = sched.Snapshot() })
				if err := writeSchedulerCheckpoint(ckptPath, snap); err != nil {
					fmt.Fprintf(os.Stderr, "%s: checkpoint failed: %v\n", id, err)
				} else if *debug {
					fmt.Printf("%s: checkpointed epoch %d\n", id, snap.Epoch)
				}
			case wkr != nil:
				var data []byte
				h.Do(func() { data = wkr.CodecState().Snapshot() })
				if err := writeBytesCheckpoint(ckptPath, data); err != nil {
					fmt.Fprintf(os.Stderr, "%s: codec checkpoint failed: %v\n", id, err)
				} else if *debug {
					fmt.Printf("%s: checkpointed codec residuals (%d bytes)\n", id, len(data))
				}
			}
		case <-ticker.C:
			switch n := handler.(type) {
			case *worker.Worker:
				fmt.Printf("%s: %d iterations, %d aborts\n", id, n.IterationsDone(), n.Aborts())
				if n.Stopped() {
					fmt.Printf("%s: reached max iterations; exiting\n", id)
					return nil
				}
			case *ps.Server:
				pulls, pushes := n.Stats()
				fmt.Printf("%s: version %d (%d pulls, %d pushes)\n", id, n.Version(), pulls, pushes)
			case *core.Scheduler:
				enabled, abortTime, _ := n.Hyperparameters()
				fmt.Printf("%s: epoch %d, %d resyncs, spec=%v window=%v\n",
					id, n.Epoch(), n.ReSyncsSent(), enabled, abortTime.Round(time.Millisecond))
			case *replica.Leader:
				fmt.Printf("%s: leader term %d, epoch %d, %d snapshots shipped\n",
					id, n.Term(), n.Sched().Epoch(), n.Shipped())
			case *replica.Standby:
				if s := n.Sched(); s != nil {
					fmt.Printf("%s: %s term %d, epoch %d, %d snapshots shipped\n",
						id, n.Role(), n.Term(), s.Epoch(), n.Shipped())
				} else {
					fmt.Printf("%s: %s term %d, awaiting leader snapshots\n", id, n.Role(), n.Term())
				}
			}
		}
	}
}

// healthFunc builds the role-appropriate /healthz payload. All fields it
// reads are atomics on the handlers, safe from the HTTP goroutine. Uptime is
// measured from process setup; a single-node deployment always runs one job.
func healthFunc(id node.ID, handler node.Handler) func() obs.Health {
	name := string(id)
	start := time.Now()
	base := func() obs.Health {
		return obs.Health{
			Status:        "ok",
			Node:          name,
			UptimeSeconds: time.Since(start).Seconds(),
			Jobs:          1,
		}
	}
	switch n := handler.(type) {
	case *worker.Worker:
		return func() obs.Health {
			h := base()
			h.Iterations = n.IterationsDone()
			if n.Stopped() {
				h.Status = "stopped"
			}
			return h
		}
	case *ps.Server:
		return func() obs.Health {
			h := base()
			h.Version = n.Version()
			return h
		}
	case *core.Scheduler:
		return func() obs.Health {
			h := base()
			h.Epoch = int64(n.Epoch())
			h.MembershipEpoch = n.MembershipEpoch()
			h.Generation = n.Generation()
			// A standalone scheduler process serves unopposed: it is the
			// leader by definition, and its generation doubles as the term.
			h.Role, h.Term, h.Leader = "leader", n.Generation(), name
			return h
		}
	case *replica.Leader:
		return func() obs.Health {
			h := base()
			s := n.Sched()
			h.Epoch = int64(s.Epoch())
			h.MembershipEpoch = s.MembershipEpoch()
			h.Generation = s.Generation()
			h.Role, h.Term, h.Leader = n.Role().String(), n.Term(), name
			return h
		}
	case *replica.Standby:
		return func() obs.Health {
			h := base()
			h.Role, h.Term = n.Role().String(), n.Term()
			if s := n.Sched(); s != nil {
				// Elected: this incarnation now serves the cluster.
				h.Epoch = int64(s.Epoch())
				h.MembershipEpoch = s.MembershipEpoch()
				h.Generation = s.Generation()
				h.Leader = name
			}
			return h
		}
	default:
		return base
	}
}

// restoreCheckpoint loads a prior checkpoint into the shard if one exists.
// Called before the host starts serving, so no locking is needed.
func restoreCheckpoint(shard *ps.Server, path string) (version int64, ok bool, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	snap, err := ps.ReadSnapshot(f)
	if err != nil {
		return 0, false, fmt.Errorf("reading %s: %w", path, err)
	}
	if err := shard.Restore(snap); err != nil {
		return 0, false, err
	}
	return snap.Version, true, nil
}

// restoreSchedulerCheckpoint loads a prior scheduler checkpoint if one
// exists; the generation in the file is the writer's (the rebuilt scheduler
// keeps its own -generation flag).
func restoreSchedulerCheckpoint(sched *core.Scheduler, path string) (gen int64, ok bool, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	snap, err := core.ReadSchedulerSnapshot(f)
	if err != nil {
		return 0, false, fmt.Errorf("reading %s: %w", path, err)
	}
	if err := sched.Restore(snap); err != nil {
		return 0, false, err
	}
	return snap.Generation, true, nil
}

// restoreResidualCheckpoint loads a worker's codec residual checkpoint if one
// exists. Called before the host starts serving, so no locking is needed.
func restoreResidualCheckpoint(wk *worker.Worker, path string) (ok bool, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	st, err := codec.RestoreState(data)
	if err != nil {
		return false, fmt.Errorf("reading %s: %w", path, err)
	}
	if err := wk.RestoreCodecState(st); err != nil {
		return false, err
	}
	return true, nil
}

// writeBytesCheckpoint writes an opaque snapshot durably with the same
// temp-fsync-rename discipline as writeCheckpoint.
func writeBytesCheckpoint(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// writeSchedulerCheckpoint mirrors writeCheckpoint for the scheduler role.
func writeSchedulerCheckpoint(path string, snap core.SchedulerSnapshot) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := snap.WriteTo(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// writeCheckpoint writes the snapshot durably: temp file in the same
// directory, fsync, then rename, so a crash mid-write never clobbers the
// previous good checkpoint.
func writeCheckpoint(path string, snap ps.Snapshot) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := snap.WriteTo(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func buildWorkload(name string, workers int, seed int64) (cluster.Workload, error) {
	switch name {
	case "mf":
		return cluster.NewMF(cluster.SizeSmall, workers, seed)
	case "cifar10":
		return cluster.NewCIFAR(cluster.SizeSmall, workers, seed)
	case "imagenet":
		return cluster.NewImageNet(cluster.SizeSmall, workers, seed)
	case "tiny":
		return cluster.NewTiny(workers, seed)
	default:
		return cluster.Workload{}, fmt.Errorf("unknown workload %q", name)
	}
}

func buildScheme(name string, wl cluster.Workload, switchAt int, pspBeta float64) (scheme.Config, error) {
	switch name {
	case "asp":
		return scheme.Config{Base: scheme.ASP}, nil
	case "bsp":
		return scheme.Config{Base: scheme.BSP}, nil
	case "ssp":
		return scheme.Config{Base: scheme.SSP, Staleness: 3}, nil
	case "adaptive":
		return scheme.Config{Base: scheme.ASP, Spec: scheme.SpecAdaptive}, nil
	case "cherry":
		return scheme.Config{Base: scheme.ASP, Spec: scheme.SpecFixed, AbortTime: wl.IterTime / 4, AbortRate: 0.22}, nil
	case "sync-switch":
		return scheme.Config{Variant: scheme.VariantSyncSwitch, SwitchAt: switchAt}, nil
	case "abs":
		return scheme.Config{Variant: scheme.VariantABS}, nil
	case "psp":
		return scheme.Config{Variant: scheme.VariantPSP, PSPBeta: pspBeta}, nil
	default:
		return scheme.Config{}, fmt.Errorf("unknown scheme %q", name)
	}
}
