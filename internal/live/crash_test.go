package live

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/wire"
)

func waitCond(t *testing.T, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}

func TestNetworkCrashRestart(t *testing.T) {
	n, err := NewNetwork(NetworkConfig{Registry: msg.Registry(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := &pingHandler{}
	b := &pingHandler{}
	if err := n.AddNode("worker/0", a); err != nil {
		t.Fatal(err)
	}
	if err := n.AddNode("worker/1", b); err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Close()

	if err := n.Inject("worker/0", "worker/1", &msg.Notify{Iter: 1}); err != nil {
		t.Fatal(err)
	}
	if !waitCond(t, func() bool { return b.count() == 1 }) {
		t.Fatal("pre-crash message never arrived")
	}

	if err := n.Crash("worker/1"); err != nil {
		t.Fatal(err)
	}
	if !n.Down("worker/1") {
		t.Error("Down() false after Crash")
	}
	if err := n.Crash("worker/1"); err == nil {
		t.Error("double Crash succeeded")
	}
	// Messages to a down node are lost.
	if err := n.Inject("worker/0", "worker/1", &msg.Notify{Iter: 2}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if c := b.count(); c != 1 {
		t.Errorf("down node received messages: count=%d", c)
	}

	// Restart with a fresh handler; old incarnation stays frozen.
	fresh := &pingHandler{}
	if err := n.Restart("worker/1", fresh); err != nil {
		t.Fatal(err)
	}
	if n.Down("worker/1") {
		t.Error("Down() true after Restart")
	}
	if !waitCond(t, func() bool { return fresh.inits.Load() == 1 }) {
		t.Fatal("restarted handler never initialized")
	}
	if err := n.Inject("worker/0", "worker/1", &msg.Notify{Iter: 3}); err != nil {
		t.Fatal(err)
	}
	if !waitCond(t, func() bool { return fresh.count() == 1 }) {
		t.Fatal("post-restart message never arrived")
	}
	if c := b.count(); c != 1 {
		t.Errorf("old incarnation received post-restart messages: count=%d", c)
	}
}

// timerHandler re-arms a short timer forever; crash must silence it across
// the restart boundary.
type timerHandler struct {
	mu    sync.Mutex
	fires int
}

func (h *timerHandler) Init(ctx node.Context) { h.arm(ctx) }

func (h *timerHandler) arm(ctx node.Context) {
	ctx.After(5*time.Millisecond, func() {
		h.mu.Lock()
		h.fires++
		h.mu.Unlock()
		h.arm(ctx)
	})
}

func (h *timerHandler) Receive(from node.ID, m wire.Message) {}

func (h *timerHandler) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.fires
}

func TestNetworkCrashSilencesTimers(t *testing.T) {
	n, err := NewNetwork(NetworkConfig{Registry: msg.Registry(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := &timerHandler{}
	if err := n.AddNode("worker/0", h); err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Close()

	if !waitCond(t, func() bool { return h.count() > 2 }) {
		t.Fatal("timer never fired")
	}
	if err := n.Crash("worker/0"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	before := h.count()
	time.Sleep(50 * time.Millisecond)
	if after := h.count(); after != before {
		t.Errorf("timers fired while down: %d -> %d", before, after)
	}

	fresh := &timerHandler{}
	if err := n.Restart("worker/0", fresh); err != nil {
		t.Fatal(err)
	}
	if !waitCond(t, func() bool { return fresh.count() > 0 }) {
		t.Error("restarted node's timers never fired")
	}
	if after := h.count(); after != before {
		t.Errorf("old incarnation's timers resumed: %d -> %d", before, after)
	}
}

func TestNetworkFaultHook(t *testing.T) {
	var mu sync.Mutex
	mode := ""
	setMode := func(m string) { mu.Lock(); mode = m; mu.Unlock() }
	n, err := NewNetwork(NetworkConfig{Registry: msg.Registry(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n.SetFault(func(from, to node.ID, kind wire.Kind, at time.Time) node.FaultAction {
		mu.Lock()
		defer mu.Unlock()
		switch mode {
		case "drop":
			return node.FaultAction{Drop: true}
		case "dup":
			return node.FaultAction{Duplicate: true}
		case "delay":
			return node.FaultAction{Delay: 20 * time.Millisecond}
		}
		return node.FaultAction{}
	})
	recv := &pingHandler{}
	if err := n.AddNode("worker/0", &pingHandler{}); err != nil {
		t.Fatal(err)
	}
	if err := n.AddNode("worker/1", recv); err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Close()

	send := func(iter int64) {
		t.Helper()
		// Drive through the full send path (fault hook included).
		nd := n.nodes["worker/0"]
		nd.Send("worker/1", &msg.Notify{Iter: iter})
	}

	setMode("drop")
	send(1)
	time.Sleep(30 * time.Millisecond)
	if c := recv.count(); c != 0 {
		t.Fatalf("dropped message delivered: count=%d", c)
	}

	setMode("dup")
	send(2)
	if !waitCond(t, func() bool { return recv.count() == 2 }) {
		t.Fatalf("duplicate not delivered twice: count=%d", recv.count())
	}

	setMode("delay")
	start := time.Now()
	send(3)
	if !waitCond(t, func() bool { return recv.count() == 3 }) {
		t.Fatalf("delayed message lost: count=%d", recv.count())
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Errorf("delayed message arrived too fast: %v", elapsed)
	}
}

func TestNetworkScheduleCancelAndClose(t *testing.T) {
	n, err := NewNetwork(NetworkConfig{Registry: msg.Registry(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	var fired, canceled, pending atomic.Int32
	n.Schedule(time.Millisecond, func() { fired.Add(1) })
	cancel := n.Schedule(20*time.Millisecond, func() { canceled.Add(1) })
	cancel()
	n.Schedule(300*time.Millisecond, func() { pending.Add(1) })
	if !waitCond(t, func() bool { return fired.Load() == 1 }) {
		t.Fatal("scheduled call never fired")
	}
	n.Close()
	n.Schedule(0, func() { pending.Add(1) })
	time.Sleep(350 * time.Millisecond)
	if c := canceled.Load(); c != 0 {
		t.Errorf("canceled call fired %d times", c)
	}
	if p := pending.Load(); p != 0 {
		t.Errorf("calls pending at or scheduled after Close fired %d times", p)
	}
}
