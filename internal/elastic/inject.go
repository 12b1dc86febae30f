package elastic

import (
	"fmt"
	"sort"
	"sync"

	"specsync/internal/msg"
	"specsync/internal/node"
)

// planSource is the injection source identity for scale commands; it never
// receives anything, it only stamps the ScaleCmd's from-field.
var planSource = node.ID("scale-plan")

// Options wires a plan into one run. The protocol is the same on every
// runtime — joining nodes enter through Runtime.Join and scale commands are
// injected at the scheduler — only the clock differs.
//
// Under the live runtime this drives single-process networks (the in-memory
// transport used by tests). Multi-process elasticity over TCPHost — where a
// joining node is a new OS process dialing in — needs a listener-side
// admission path and is out of scope here.
type Options struct {
	// Plan is the scale schedule. Required.
	Plan *Plan
	// Servers is the initial server count (server slots 0..Servers-1 are
	// live at start).
	Servers int
	// NewWorker builds the handler for a joining worker (configured with
	// JoinOnInit, so its Init announces it to the scheduler). Required when
	// the plan adds a worker.
	NewWorker func(i int) (node.Handler, error)
	// NewServer builds the handler for a joining server slot (a
	// ps.NewJoining shard: frozen and empty until a migration hands it
	// state). Required when the plan adds a server.
	NewServer func(slot int) (node.Handler, error)
	// OnWorkerAdd / OnServerAdd let the harness track the new node (result
	// accounting reads counters off the handlers).
	OnWorkerAdd func(i int, h node.Handler)
	OnServerAdd func(slot int, h node.Handler)
}

// Injector executes a plan against a runtime: virtual time under the
// simulator, wall-clock time under the live runtime.
type Injector struct {
	rt   node.Runtime
	opts Options

	// mu guards the fields below: live runtimes fire plan events from
	// concurrent timer goroutines. It is uncontended under the simulator.
	mu sync.Mutex
	// live is the server set as of the last issued command; commands are
	// issued in event order, so it tracks the plan's intent even while the
	// scheduler is still migrating toward an earlier set.
	live map[int]bool
	errs []error
}

// Attach validates the plan and schedules every membership event. Call
// after the initial nodes are added: before running the simulator, or after
// starting the live runtime (plan offsets count from the call).
func Attach(rt node.Runtime, opts Options) (*Injector, error) {
	if opts.Plan == nil {
		return nil, fmt.Errorf("elastic: nil plan")
	}
	if err := opts.Plan.Validate(); err != nil {
		return nil, err
	}
	for i, ev := range opts.Plan.Events {
		switch ev.Kind {
		case KindAddWorker:
			if opts.NewWorker == nil {
				return nil, fmt.Errorf("elastic: event %d adds a worker but NewWorker is nil", i)
			}
		case KindAddServer:
			if opts.NewServer == nil {
				return nil, fmt.Errorf("elastic: event %d adds a server but NewServer is nil", i)
			}
		}
	}
	inj := &Injector{rt: rt, opts: opts, live: make(map[int]bool, opts.Servers)}
	for s := 0; s < opts.Servers; s++ {
		inj.live[s] = true
	}
	for _, ev := range opts.Plan.Sorted() {
		ev := ev
		rt.Schedule(ev.At, func() { inj.apply(ev) })
	}
	return inj, nil
}

func (inj *Injector) apply(ev Event) {
	if err := inj.applyEvent(ev); err != nil {
		inj.mu.Lock()
		inj.errs = append(inj.errs, err)
		inj.mu.Unlock()
	}
}

func (inj *Injector) applyEvent(ev Event) error {
	switch ev.Kind {
	case KindAddWorker:
		h, err := inj.opts.NewWorker(ev.Node)
		if err != nil {
			return err
		}
		if err := inj.rt.Join(node.WorkerID(ev.Node), h); err != nil {
			return err
		}
		if inj.opts.OnWorkerAdd != nil {
			inj.opts.OnWorkerAdd(ev.Node, h)
		}
	case KindRemoveWorker:
		return inj.rt.Inject(planSource, node.Scheduler, &msg.ScaleCmd{Op: msg.ScaleRetireWorker, Node: int32(ev.Node)})
	case KindAddServer:
		inj.mu.Lock()
		live := inj.live[ev.Node]
		inj.mu.Unlock()
		if live {
			return fmt.Errorf("elastic: add-server %d: slot already live", ev.Node)
		}
		h, err := inj.opts.NewServer(ev.Node)
		if err != nil {
			return err
		}
		if err := inj.rt.Join(node.ServerID(ev.Node), h); err != nil {
			return err
		}
		if inj.opts.OnServerAdd != nil {
			inj.opts.OnServerAdd(ev.Node, h)
		}
		return inj.setServer(ev.Node, true)
	case KindRemoveServer:
		return inj.setServer(ev.Node, false)
	}
	return nil
}

// setServer adds slot to (or removes it from) the server set and sends the
// new set to the scheduler. mu is held across the send so that concurrent
// plan events on a live runtime issue their commands in the order of the set
// changes they carry.
func (inj *Injector) setServer(slot int, live bool) error {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if live {
		inj.live[slot] = true
	} else {
		if !inj.live[slot] {
			return fmt.Errorf("elastic: remove-server %d: slot not live", slot)
		}
		if len(inj.live) == 1 {
			return fmt.Errorf("elastic: remove-server %d would empty the server set", slot)
		}
		delete(inj.live, slot)
	}
	return inj.rt.Inject(planSource, node.Scheduler, &msg.ScaleCmd{Op: msg.ScaleSetServers, Servers: liveSlotsOf(inj.live)})
}

// liveSlotsOf flattens a live-slot set into the sorted int32 slice a
// ScaleSetServers command carries.
func liveSlotsOf(live map[int]bool) []int32 {
	out := make([]int, 0, len(live))
	for s := range live {
		out = append(out, s)
	}
	sort.Ints(out)
	slots := make([]int32, len(out))
	for i, s := range out {
		slots[i] = int32(s)
	}
	return slots
}

// Errs returns runtime errors the injector hit while executing the plan.
// Empty on a clean run.
func (inj *Injector) Errs() []error {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return append([]error(nil), inj.errs...)
}
