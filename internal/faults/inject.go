package faults

import (
	"fmt"
	"sync"
	"time"

	"specsync/internal/core"
	"specsync/internal/metrics"
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/ps"
	"specsync/internal/trace"
	"specsync/internal/wire"
)

// Options wires a plan into one run.
type Options struct {
	// Plan is the fault schedule. Required.
	Plan *Plan
	// NumWorkers / NumServers bound the plan's node indices.
	NumWorkers, NumServers int
	// Tracer, if non-nil, records crash/recover events.
	Tracer trace.Tracer
	// Faults, if non-nil, counts fault activity.
	Faults *metrics.Faults
	// NewWorker builds a fresh worker handler for a restart (same config,
	// blank state — the training state died with the old incarnation).
	// Required when the plan restarts a worker.
	NewWorker func(i int) (node.Handler, error)
	// NewServer builds a fresh parameter-server shard for a restart.
	// Required when the plan restarts a server.
	NewServer func(shard int) (*ps.Server, error)
	// NewScheduler builds a fresh scheduler incarnation for a restart; gen
	// is the incarnation number (1 for the first restart) and must reach the
	// new scheduler's config so its Init announces itself with a
	// SchedulerHello. Required when the plan restarts the scheduler.
	NewScheduler func(gen int64) (*core.Scheduler, error)
	// Checkpoint, if non-nil, returns the snapshot to restore into a
	// restarted shard (the latest in-memory snapshot under the simulator, a
	// checkpoint file on a real deployment); ok=false restarts the shard
	// blank, at its initial values.
	Checkpoint func(shard int) (ps.Snapshot, bool)
	// SchedulerCheckpoint, if non-nil, returns the snapshot to restore into
	// a restarted scheduler; ok=false restarts it cold (state rebuilds from
	// worker StateReports alone).
	SchedulerCheckpoint func() (core.SchedulerSnapshot, bool)
	// Server returns the shard's current server. If non-nil, a server crash
	// pins the shard's acknowledged version: the catch-up target of a
	// promotion and the loss baseline of a checkpoint restore.
	Server func(shard int) *ps.Server
	// OnWorkerRestart / OnServerRestart / OnSchedulerRestart let the harness
	// swap its references to the replaced node (result accounting reads
	// counters off them).
	OnWorkerRestart    func(i int, h node.Handler)
	OnServerRestart    func(shard int, srv *ps.Server)
	OnSchedulerRestart func(s *core.Scheduler)

	// Replicas is the number of backup replicas per shard (R). When
	// positive, a crashed server recovers by promoting its next surviving
	// backup — after waiting for the in-flight replication stream to drain,
	// so no acknowledged push is lost — instead of restoring a checkpoint.
	// The checkpoint path remains the fallback once a shard's backups are
	// exhausted by repeated crashes.
	Replicas int
	// ReplicaServer returns the live backup server for (shard, r), r being
	// the 1-based replica slot. Required when Replicas > 0 and the plan
	// crashes a server (as is the Server accessor, which pins the version
	// the promotion must catch up to).
	ReplicaServer func(shard, r int) *ps.Server
	// OnPromote lets the harness swap its shard reference to the promoted
	// backup and record the failover (flight events, result accounting).
	// OnServerRestart also fires for promotions, with the promoted server.
	OnPromote func(shard int, srv *ps.Server)
	// Standbys is the number of standby scheduler incarnations. When
	// positive, a crashed scheduler is not restarted by the injector — the
	// standbys detect the silence and elect a successor on their own, so
	// the injector only counts the crash and ignores the event's
	// RestartAfter.
	Standbys int
}

// catchUpPoll is the tick on which a promotion re-checks whether the backup
// has drained the dead primary's in-flight replication stream. Deterministic
// under the DES (plain virtual delay, no randomness).
const catchUpPoll = 2 * time.Millisecond

// Injector executes a plan against a runtime: virtual time under the
// simulator, wall-clock time under the live runtime.
type Injector struct {
	rt   node.Runtime
	opts Options

	// mu guards the fields below: live runtimes fire plan actions from
	// concurrent timer goroutines. It is uncontended under the simulator.
	mu       sync.Mutex
	schedGen int64
	// promoted counts backups already consumed per shard; crashVersion pins
	// each crashed shard's acknowledged version — the catch-up target for a
	// promotion and the loss baseline for a checkpoint restore.
	promoted     map[int]int
	crashVersion map[int]int64
	errs         []error
}

// Attach validates the plan against the cluster shape, installs the
// message-fault hook, and schedules every crash/restart. Under the
// simulator call it before running; under the live runtime, after Start
// (plan offsets count from the call). The runtime cancels pending plan
// events when it closes.
func Attach(rt node.Runtime, opts Options) (*Injector, error) {
	if opts.Plan == nil {
		return nil, fmt.Errorf("faults: nil plan")
	}
	if err := opts.Plan.Validate(); err != nil {
		return nil, err
	}
	for i, ev := range opts.Plan.Events {
		switch ev.Kind {
		case KindCrashWorker:
			if ev.Node >= opts.NumWorkers {
				return nil, fmt.Errorf("faults: event %d: worker %d out of range (m=%d)", i, ev.Node, opts.NumWorkers)
			}
			if ev.RestartAfter > 0 && opts.NewWorker == nil {
				return nil, fmt.Errorf("faults: event %d restarts a worker but NewWorker is nil", i)
			}
		case KindCrashServer:
			if ev.Node >= opts.NumServers {
				return nil, fmt.Errorf("faults: event %d: server %d out of range (n=%d)", i, ev.Node, opts.NumServers)
			}
			if ev.RestartAfter > 0 && opts.NewServer == nil && opts.Replicas == 0 {
				return nil, fmt.Errorf("faults: event %d restarts a server but NewServer is nil", i)
			}
			if opts.Replicas > 0 && (opts.ReplicaServer == nil || opts.Server == nil) {
				return nil, fmt.Errorf("faults: event %d: Replicas=%d needs the ReplicaServer and Server accessors", i, opts.Replicas)
			}
		case KindCrashScheduler:
			if ev.RestartAfter > 0 && opts.NewScheduler == nil && opts.Standbys == 0 {
				return nil, fmt.Errorf("faults: event %d restarts the scheduler but NewScheduler is nil", i)
			}
		}
	}

	inj := &Injector{
		rt: rt, opts: opts,
		promoted:     make(map[int]int),
		crashVersion: make(map[int]int64),
	}

	filter := NewFilter(opts.Plan, opts.Faults)
	if !filter.Empty() {
		start := rt.Now()
		rt.SetFault(func(from, to node.ID, kind wire.Kind, at time.Time) node.FaultAction {
			return filter.Action(from, to, kind, at.Sub(start))
		})
	}

	for _, ev := range opts.Plan.Crashes() {
		ev := ev
		rt.Schedule(ev.At, func() { inj.crash(ev) })
	}
	return inj, nil
}

func (inj *Injector) crash(ev Event) {
	var id node.ID
	traceWorker := ev.Node
	switch ev.Kind {
	case KindCrashWorker:
		id = node.WorkerID(ev.Node)
	case KindCrashScheduler:
		id = node.Scheduler
		traceWorker = trace.SchedulerNode
	default:
		id = node.ServerID(ev.Node)
		traceWorker = -(ev.Node + 1)
	}
	if inj.rt.Down(id) {
		// Overlapping crash events on one node (easy to generate for the
		// single scheduler): the earlier crash already holds it down, so
		// this one — and its restart — is a no-op.
		return
	}
	if ev.Kind == KindCrashServer && inj.opts.Server != nil {
		// Pin the acknowledged version at the instant of death: a promotion
		// must not serve until its backup has applied this much, and a
		// checkpoint restore that comes back below it lost pushes.
		if srv := inj.opts.Server(ev.Node); srv != nil {
			v := srv.Version()
			inj.mu.Lock()
			inj.crashVersion[ev.Node] = v
			inj.mu.Unlock()
		}
	}
	if err := inj.rt.Crash(id); err != nil {
		inj.fail(err)
		return
	}
	if ev.Kind == KindCrashScheduler {
		inj.opts.Faults.RecordSchedulerCrash()
	} else {
		inj.opts.Faults.RecordCrash()
	}
	if inj.opts.Tracer != nil {
		inj.opts.Tracer.Record(trace.Event{At: inj.rt.Now(), Worker: traceWorker, Kind: trace.KindCrash})
	}
	if ev.Kind == KindCrashScheduler && inj.opts.Standbys > 0 {
		// The standbys' election timers take it from here; injecting a
		// restarted incarnation at the old node ID would fork the control
		// plane into two live schedulers.
		return
	}
	if ev.RestartAfter > 0 {
		inj.rt.Schedule(ev.RestartAfter, func() { inj.restart(ev, id, traceWorker) })
	}
}

func (inj *Injector) restart(ev Event, id node.ID, traceWorker int) {
	if ev.Kind == KindCrashScheduler {
		inj.restartScheduler()
		return
	}
	var h node.Handler
	restored := int64(0)
	if ev.Kind == KindCrashWorker {
		wk, err := inj.opts.NewWorker(ev.Node)
		if err != nil {
			inj.fail(err)
			return
		}
		h = wk
	} else {
		inj.mu.Lock()
		promote := inj.opts.Replicas > 0 && inj.promoted[ev.Node] < inj.opts.Replicas
		cv := inj.crashVersion[ev.Node]
		inj.mu.Unlock()
		if promote {
			// A surviving backup holds every acknowledged push; promote it
			// instead of rolling back to a checkpoint.
			inj.promoteReplica(ev.Node, id, traceWorker)
			return
		}
		if inj.opts.NewServer == nil {
			inj.fail(fmt.Errorf("faults: shard %d exhausted its backups and NewServer is nil", ev.Node))
			return
		}
		srv, err := inj.opts.NewServer(ev.Node)
		if err != nil {
			inj.fail(err)
			return
		}
		if inj.opts.Checkpoint != nil {
			if snap, ok := inj.opts.Checkpoint(ev.Node); ok {
				if err := srv.Restore(snap); err != nil {
					inj.fail(err)
					return
				}
				inj.opts.Faults.RecordRestore()
				restored = snap.Version
			}
		}
		// Everything applied after the last checkpoint died with the node.
		if cv > restored {
			inj.opts.Faults.RecordLostPushes(cv - restored)
		}
		h = srv
		if inj.opts.OnServerRestart != nil {
			inj.opts.OnServerRestart(ev.Node, srv)
		}
	}
	if err := inj.rt.Restart(id, h); err != nil {
		inj.fail(err)
		return
	}
	inj.opts.Faults.RecordRestart()
	if inj.opts.Tracer != nil {
		inj.opts.Tracer.Record(trace.Event{At: inj.rt.Now(), Worker: traceWorker, Kind: trace.KindRecover, Value: restored})
	}
	if ev.Kind == KindCrashWorker {
		if inj.opts.OnWorkerRestart != nil {
			inj.opts.OnWorkerRestart(ev.Node, h)
		}
		// The scheduler only starts workers at Init; a restarted worker
		// needs its Start re-issued to re-enter the training loop.
		if err := inj.rt.Inject(node.Scheduler, id, &msg.Start{}); err != nil {
			inj.fail(err)
		}
	}
}

// promoteReplica recovers a crashed shard from its next surviving backup.
// The backup may still be draining ReplApply messages the dead primary sent
// before crashing (in-flight sends deliver; that is the zero-loss basis), so
// promotion first waits until the backup's version reaches the version the
// primary had acknowledged, then installs the backup at the shard's node ID —
// workers keep routing to "server/i" and never learn a failover happened.
func (inj *Injector) promoteReplica(shard int, id node.ID, traceWorker int) {
	inj.mu.Lock()
	r := inj.promoted[shard] + 1
	target := inj.crashVersion[shard]
	inj.mu.Unlock()
	backup := inj.opts.ReplicaServer(shard, r)
	if backup == nil {
		inj.fail(fmt.Errorf("faults: shard %d has no replica %d to promote", shard, r))
		return
	}
	var await func()
	await = func() {
		if backup.Version() < target {
			inj.rt.Schedule(catchUpPoll, await)
			return
		}
		inj.finishPromotion(shard, r, id, traceWorker, backup)
	}
	await()
}

// finishPromotion performs the switch once the backup has caught up: detach
// the backup handler from its replica node ID (one handler must not serve two
// live IDs), point it at the backups that remain, and restart the shard's
// well-known ID with it.
func (inj *Injector) finishPromotion(shard, r int, id node.ID, traceWorker int, backup *ps.Server) {
	if err := inj.rt.Crash(node.ReplicaID(shard, r)); err != nil {
		inj.fail(err)
		return
	}
	// The crash only marks the node down; under the live runtime a callback
	// may still be running on its loop. Drain it before taking over the
	// handler's state.
	if err := inj.rt.Quiesce(node.ReplicaID(shard, r)); err != nil {
		inj.fail(err)
		return
	}
	remaining := make([]node.ID, 0, inj.opts.Replicas-r)
	for i := r + 1; i <= inj.opts.Replicas; i++ {
		remaining = append(remaining, node.ReplicaID(shard, i))
	}
	backup.Promote(remaining)
	if err := inj.rt.Restart(id, backup); err != nil {
		inj.fail(err)
		return
	}
	inj.mu.Lock()
	inj.promoted[shard] = r
	inj.mu.Unlock()
	inj.opts.Faults.RecordRestart()
	inj.opts.Faults.RecordPromotion()
	if inj.opts.Tracer != nil {
		inj.opts.Tracer.Record(trace.Event{At: inj.rt.Now(), Worker: traceWorker, Kind: trace.KindRecover, Value: backup.Version()})
	}
	if inj.opts.OnServerRestart != nil {
		inj.opts.OnServerRestart(shard, backup)
	}
	if inj.opts.OnPromote != nil {
		inj.opts.OnPromote(shard, backup)
	}
}

// restartScheduler brings up the next scheduler incarnation: restore the
// latest checkpoint when one exists, then let the new incarnation's Init
// broadcast SchedulerHello — the StateReport replies rebuild whatever the
// checkpoint missed (or everything, on a cold start). No Start re-injection:
// a generation > 0 scheduler never re-Starts workers.
func (inj *Injector) restartScheduler() {
	inj.mu.Lock()
	inj.schedGen++
	gen := inj.schedGen
	inj.mu.Unlock()
	sched, err := inj.opts.NewScheduler(gen)
	if err != nil {
		inj.fail(err)
		return
	}
	if inj.opts.SchedulerCheckpoint != nil {
		if snap, ok := inj.opts.SchedulerCheckpoint(); ok {
			if err := sched.Restore(snap); err != nil {
				inj.fail(err)
				return
			}
			inj.opts.Faults.RecordSchedulerRestore()
		}
	}
	if err := inj.rt.Restart(node.Scheduler, sched); err != nil {
		inj.fail(err)
		return
	}
	// The scheduler's Init records the recover trace and obs span itself
	// (it knows its generation); the injector only counts the restart.
	inj.opts.Faults.RecordSchedulerRestart()
	if inj.opts.OnSchedulerRestart != nil {
		inj.opts.OnSchedulerRestart(sched)
	}
}

func (inj *Injector) fail(err error) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.errs = append(inj.errs, err)
}

// Errs returns runtime errors the injector hit while executing the plan
// (mis-scheduled crashes, failed restores). Empty on a clean run.
func (inj *Injector) Errs() []error {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return append([]error(nil), inj.errs...)
}
