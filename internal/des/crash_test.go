package des

import (
	"testing"
	"time"

	"specsync/internal/node"
	"specsync/internal/wire"
)

// tickNode schedules a repeating timer and counts fires; crash must silence
// it, restart must not resurrect the old incarnation's timer.
type tickNode struct {
	ctx   node.Context
	fires int
	inits int
}

func (n *tickNode) Init(ctx node.Context) {
	n.ctx = ctx
	n.inits++
	n.tick()
}

func (n *tickNode) tick() {
	n.ctx.After(10*time.Millisecond, func() {
		n.fires++
		n.tick()
	})
}

func (n *tickNode) Receive(from node.ID, m wire.Message) {}

func TestCrashSilencesTimersAndDropsDeliveries(t *testing.T) {
	s := newSim(t, Config{Seed: 1})
	tn := &tickNode{}
	sender := &echoNode{}
	if err := s.AddNode(node.WorkerID(0), tn); err != nil {
		t.Fatal(err)
	}
	if err := s.AddNode(node.WorkerID(1), sender); err != nil {
		t.Fatal(err)
	}
	s.Init()

	s.RunFor(55 * time.Millisecond)
	firesBefore := tn.fires
	if firesBefore == 0 {
		t.Fatal("timer never fired before crash")
	}

	if err := s.Crash(node.WorkerID(0)); err != nil {
		t.Fatal(err)
	}
	if !s.Down(node.WorkerID(0)) {
		t.Error("Down() false after Crash")
	}
	// A message sent to the down node must be lost.
	if err := s.Inject(node.WorkerID(1), node.WorkerID(0), &ping{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	s.RunFor(100 * time.Millisecond)
	if tn.fires != firesBefore {
		t.Errorf("timers fired while down: %d -> %d", firesBefore, tn.fires)
	}
	if _, dead := s.FaultDrops(); dead == 0 {
		t.Error("delivery to down node not counted as dead drop")
	}

	// Restart with a fresh handler: Init runs, new timers fire.
	fresh := &tickNode{}
	if err := s.Restart(node.WorkerID(0), fresh); err != nil {
		t.Fatal(err)
	}
	if s.Down(node.WorkerID(0)) {
		t.Error("Down() true after Restart")
	}
	s.RunFor(55 * time.Millisecond)
	if fresh.inits != 1 {
		t.Errorf("fresh handler Init ran %d times, want 1", fresh.inits)
	}
	if fresh.fires == 0 {
		t.Error("restarted node's timer never fired")
	}
	if tn.fires != firesBefore {
		t.Errorf("old incarnation's timer resumed after restart: %d -> %d", firesBefore, tn.fires)
	}
}

// TestCrashedSenderInFlightStillDelivers pins the crash semantic the
// replication design rests on: Crash(id) drops messages TO the dead node,
// but messages it already sent keep flowing to their destinations. A shard
// primary that forwards an acknowledged push to its backup and then dies
// therefore cannot take the push with it — the forward is already on the
// wire, and the promoted backup applies it (the zero-loss invariant in
// DESIGN.md, Replication).
func TestCrashedSenderInFlightStillDelivers(t *testing.T) {
	s := newSim(t, Config{Seed: 1, Net: NetModel{Latency: 5 * time.Millisecond}})
	sender, receiver := &echoNode{}, &echoNode{}
	if err := s.AddNode(node.WorkerID(0), sender); err != nil {
		t.Fatal(err)
	}
	if err := s.AddNode(node.WorkerID(1), receiver); err != nil {
		t.Fatal(err)
	}
	s.Init()

	// Put two messages in flight, then kill the sender before either's
	// 5ms delivery time arrives.
	s.nodes[node.WorkerID(0)].Send(node.WorkerID(1), &ping{Seq: 1})
	s.nodes[node.WorkerID(0)].Send(node.WorkerID(1), &ping{Seq: 2})
	if err := s.Crash(node.WorkerID(0)); err != nil {
		t.Fatal(err)
	}
	s.RunFor(50 * time.Millisecond)

	if len(receiver.seen) != 2 {
		t.Fatalf("in-flight sends from a crashed sender: delivered %d, want 2 (%v)", len(receiver.seen), receiver.seen)
	}
	// The reverse direction really is dropped: nothing reaches the corpse.
	if err := s.Inject(node.WorkerID(1), node.WorkerID(0), &ping{Seq: 3}); err != nil {
		t.Fatal(err)
	}
	s.RunFor(50 * time.Millisecond)
	if len(sender.seen) != 0 {
		t.Errorf("crashed node received %v", sender.seen)
	}
}

func TestCrashRestartErrors(t *testing.T) {
	s := newSim(t, Config{Seed: 1})
	if err := s.AddNode(node.WorkerID(0), &echoNode{}); err != nil {
		t.Fatal(err)
	}
	s.Init()
	if err := s.Crash(node.WorkerID(9)); err == nil {
		t.Error("Crash(unknown) succeeded")
	}
	if err := s.Restart(node.WorkerID(0), nil); err == nil {
		t.Error("Restart(up node) succeeded")
	}
	if err := s.Crash(node.WorkerID(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Crash(node.WorkerID(0)); err == nil {
		t.Error("double Crash succeeded")
	}
	if err := s.Restart(node.WorkerID(0), nil); err != nil {
		t.Fatal(err)
	}
}

func TestFaultHookDropDuplicateDelay(t *testing.T) {
	recv := &echoNode{}
	var mode string
	s := newSim(t, Config{Seed: 1})
	s.SetFault(func(from, to node.ID, kind wire.Kind, at time.Time) node.FaultAction {
		switch mode {
		case "drop":
			return node.FaultAction{Drop: true}
		case "dup":
			return node.FaultAction{Duplicate: true}
		case "delay":
			return node.FaultAction{Delay: 50 * time.Millisecond}
		}
		return node.FaultAction{}
	})
	if err := s.AddNode(node.WorkerID(0), &echoNode{}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddNode(node.WorkerID(1), recv); err != nil {
		t.Fatal(err)
	}
	s.Init()
	send := func(seq int) {
		nc := s.nodes[node.WorkerID(0)]
		s.send(nc.id, node.WorkerID(1), &ping{Seq: seq})
	}

	mode = "drop"
	send(1)
	s.RunFor(time.Second)
	if len(recv.seen) != 0 {
		t.Fatalf("dropped message delivered: %v", recv.seen)
	}
	if injected, _ := s.FaultDrops(); injected != 1 {
		t.Errorf("injected drops = %d, want 1", injected)
	}

	mode = "dup"
	send(2)
	s.RunFor(time.Second)
	if len(recv.seen) != 2 {
		t.Fatalf("duplicated message delivered %d times, want 2", len(recv.seen))
	}

	mode = "delay"
	before := s.Now()
	send(3)
	s.RunFor(time.Second)
	if len(recv.seen) != 3 {
		t.Fatalf("delayed message lost: %v", recv.seen)
	}
	_ = before
}
