package main

import (
	"math/rand"
	"sync/atomic"
	"time"

	"specsync/internal/model"
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/tensor"
	"specsync/internal/wire"
)

// timedModel forwards every model.Model call to the wrapped model and times
// the calls that do model work. Live workers share one model across
// goroutines, so the tallies are atomic.
type timedModel struct {
	model.Model
	gradCalls, gradNanos   atomic.Int64
	sampleNanos, evalNanos atomic.Int64
}

func (m *timedModel) Grad(w tensor.Vec, b model.Batch) model.Update {
	t0 := time.Now()
	u := m.Model.Grad(w, b)
	m.gradNanos.Add(int64(time.Since(t0)))
	m.gradCalls.Add(1)
	return u
}

func (m *timedModel) SampleBatch(shard int, rng *rand.Rand) model.Batch {
	t0 := time.Now()
	b := m.Model.SampleBatch(shard, rng)
	m.sampleNanos.Add(int64(time.Since(t0)))
	return b
}

func (m *timedModel) EvalLoss(w tensor.Vec) float64 {
	t0 := time.Now()
	l := m.Model.EvalLoss(w)
	m.evalNanos.Add(int64(time.Since(t0)))
	return l
}

// reqKey names one outstanding request: the peer it went to and its sequence
// number (pull and push sequences are per worker, shared by every shard).
type reqKey struct {
	peer node.ID
	seq  uint64
}

// tracedHandler wraps a live node's handler. It times every callback the
// node runs (messages and timers), counts delivered messages, and on workers
// matches pull and push requests to their responses for round-trip times.
// All callbacks of one node run serialized on its mailbox goroutine, so the
// fields need no lock; read them only after the host is closed.
type tracedHandler struct {
	inner node.Handler

	busy time.Duration // time inside callbacks
	msgs int64         // messages delivered

	pullSent, pushSent map[reqKey]time.Time
	pullRTT, pushRTT   []float64 // microseconds
	pushes, acks       int64
}

func newTracedHandler(inner node.Handler) *tracedHandler {
	return &tracedHandler{
		inner:    inner,
		pullSent: map[reqKey]time.Time{},
		pushSent: map[reqKey]time.Time{},
	}
}

func (h *tracedHandler) Init(ctx node.Context) {
	h.timed(func() { h.inner.Init(&tracedContext{Context: ctx, h: h}) })
}

func (h *tracedHandler) Receive(from node.ID, m wire.Message) {
	h.msgs++
	switch mm := m.(type) {
	case *msg.PullResp:
		h.answered(h.pullSent, reqKey{from, mm.Seq}, &h.pullRTT)
	case *msg.PushAck:
		if h.answered(h.pushSent, reqKey{from, mm.Seq}, &h.pushRTT) {
			h.acks++
		}
	}
	h.timed(func() { h.inner.Receive(from, m) })
}

// answered records the round trip of an outstanding request, reporting
// whether the response matched one.
func (h *tracedHandler) answered(sent map[reqKey]time.Time, k reqKey, rtts *[]float64) bool {
	t0, ok := sent[k]
	if !ok {
		return false
	}
	delete(sent, k)
	*rtts = append(*rtts, float64(time.Since(t0))/float64(time.Microsecond))
	return true
}

func (h *tracedHandler) timed(f func()) {
	t0 := time.Now()
	f()
	h.busy += time.Since(t0)
}

// sent notes an outbound request so its response can be timed.
func (h *tracedHandler) sent(to node.ID, m wire.Message) {
	switch mm := m.(type) {
	case *msg.PullReq:
		h.pullSent[reqKey{to, mm.Seq}] = time.Now()
	case *msg.PushReq:
		h.pushSent[reqKey{to, mm.Seq}] = time.Now()
		h.pushes++
	}
}

// tracedContext is the node.Context a traced handler hands its node: sends
// are noted before they go out, and timer callbacks are timed like messages.
type tracedContext struct {
	node.Context
	h *tracedHandler
}

func (c *tracedContext) Send(to node.ID, m wire.Message) {
	c.h.sent(to, m)
	c.Context.Send(to, m)
}

func (c *tracedContext) After(d time.Duration, f func()) node.CancelFunc {
	return c.Context.After(d, func() { c.h.timed(f) })
}
