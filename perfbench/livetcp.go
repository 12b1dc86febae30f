package main

import (
	"fmt"
	"math/rand"
	"time"

	"specsync/internal/cluster"
	"specsync/internal/core"
	"specsync/internal/live"
	"specsync/internal/metrics"
	"specsync/internal/model"
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/optimizer"
	"specsync/internal/ps"
	"specsync/internal/tensor"
	"specsync/internal/worker"
)

// liveWorkload is a closed-loop training job on loopback TCP: every node runs
// on its own live.TCPHost in this process, and each worker pulls, computes
// for a nominal compute time and waits for its push acks before the next
// iteration, until it has done its iteration budget.
type liveWorkload struct {
	workers, servers int
	budget           int64
	compute          time.Duration
	timeout          time.Duration
}

type liveJob struct {
	lw       liveWorkload
	model    model.Model // undecorated, for the loss checks
	timed    *timedModel // traced runs only
	init     tensor.Vec
	ranges   []ps.Range
	servers  []*ps.Server
	workers  []*worker.Worker
	sched    *core.Scheduler
	transfer *metrics.Transfer
	hosts    map[node.ID]*live.TCPHost
	traces   map[node.ID]*tracedHandler // traced runs only
}

// prepare builds the data, model and nodes, starts every node's TCP host
// and exchanges their addresses.
func (lw liveWorkload) prepare(seed int64, traced bool) (job, error) {
	wl, err := cluster.NewTiny(lw.workers, seed)
	if err != nil {
		return nil, err
	}
	j := &liveJob{
		lw:       lw,
		model:    wl.Model,
		init:     wl.Model.Init(rand.New(rand.NewSource(seed))),
		transfer: metrics.NewTransfer(msg.IsControl),
		hosts:    map[node.ID]*live.TCPHost{},
	}
	mdl := wl.Model
	if traced {
		j.timed = &timedModel{Model: wl.Model}
		mdl = j.timed
		j.traces = map[node.ID]*tracedHandler{}
	}
	if j.ranges, err = ps.ShardRanges(mdl.Dim(), lw.servers); err != nil {
		return nil, err
	}
	handlers := map[node.ID]node.Handler{}
	for i, r := range j.ranges {
		opt, err := optimizer.NewSGD(optimizer.SGDConfig{
			Schedule: wl.Schedule, Momentum: wl.Momentum, Clip: wl.Clip,
		}, r.Len())
		if err != nil {
			return nil, err
		}
		srv, err := ps.New(ps.Config{Range: r, Init: j.init[r.Lo:r.Hi], Optimizer: opt})
		if err != nil {
			return nil, err
		}
		j.servers = append(j.servers, srv)
		handlers[node.ServerID(i)] = srv
	}
	for i := 0; i < lw.workers; i++ {
		wk, err := worker.New(worker.Config{
			Index: i, Shards: j.ranges, Model: mdl, Scheme: specAdaptiveASP,
			Compute:  worker.ComputeModel{Base: lw.compute, Speed: 1},
			MaxIters: lw.budget,
		})
		if err != nil {
			return nil, err
		}
		j.workers = append(j.workers, wk)
		handlers[node.WorkerID(i)] = wk
	}
	j.sched, err = core.NewScheduler(core.SchedulerConfig{
		Workers: lw.workers, Scheme: specAdaptiveASP, InitialSpan: lw.compute,
	})
	if err != nil {
		return nil, err
	}
	handlers[node.Scheduler] = j.sched

	reg := msg.Registry()
	for id, h := range handlers {
		if traced {
			th := newTracedHandler(h)
			j.traces[id] = th
			h = th
		}
		host, err := live.NewTCPHost(live.TCPHostConfig{
			ID: id, Handler: h, ListenAddr: "127.0.0.1:0",
			Registry: reg, Seed: seed, Transfer: j.transfer,
		})
		if err != nil {
			j.close()
			return nil, err
		}
		j.hosts[id] = host
	}
	// Every Init has run once Do returns; the scheduler's Start broadcast
	// from Init reached no one, since no peer address is known yet.
	for _, h := range j.hosts {
		h.Do(func() {})
	}
	for id, h := range j.hosts {
		for peer, ph := range j.hosts {
			if peer != id {
				h.AddPeer(peer, ph.Addr())
			}
		}
	}
	return j, nil
}

// close stops every host and waits for its goroutines.
func (j *liveJob) close() {
	for _, h := range j.hosts {
		h.Close()
	}
	clear(j.hosts)
}

func (j *liveJob) run() (*runStats, error) {
	traced := j.timed != nil
	st, err := measure(traced, func() error {
		for i := range j.workers {
			j.hosts[node.Scheduler].Send(node.WorkerID(i), &msg.Start{})
		}
		deadline := time.Now().Add(j.lw.timeout)
		for !allStopped(j.workers) {
			if time.Now().After(deadline) {
				return fmt.Errorf("live-tcp: workers still running after %v", j.lw.timeout)
			}
			time.Sleep(time.Millisecond)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	w := tensor.NewVec(j.model.Dim())
	var applied []int64
	for i, srv := range j.servers {
		r := j.ranges[i]
		j.hosts[node.ServerID(i)].Do(func() { copy(w[r.Lo:r.Hi], srv.Params()) })
		applied = append(applied, srv.Version())
	}
	st.resyncs = j.sched.ReSyncsSent()
	// Closing waits for every mailbox goroutine, so the traced handlers'
	// tallies are safe to read afterwards.
	j.close()

	for i, wk := range j.workers {
		if n := wk.IterationsDone(); n != j.lw.budget {
			st.fail("worker %d did %d of %d iterations", i, n, j.lw.budget)
		}
		st.iters += wk.IterationsDone()
		st.aborts += wk.Aborts()
	}
	// Every iteration pushes to every shard, and a worker only moves on
	// once each shard has acked, so each shard applied every iteration.
	for i, v := range applied {
		if v != st.iters {
			st.fail("server %d applied %d pushes for %d iterations", i, v, st.iters)
		}
	}
	st.wireBytes = j.transfer.TotalBytes()
	st.initLoss = j.model.EvalLoss(j.init)
	st.finalLoss = j.model.EvalLoss(w)
	checkLoss(st)
	if traced {
		st.model = j.timed
		st.live = j.traces
		for id, th := range j.traces {
			st.delivered += th.msgs
			st.pullRTT = append(st.pullRTT, th.pullRTT...)
			st.pushRTT = append(st.pushRTT, th.pushRTT...)
			if th.pushes != th.acks || len(th.pushSent) > 0 {
				st.fail("%s: %d pushes, %d acked", id, th.pushes, th.acks)
			}
		}
	}
	return st, nil
}

func allStopped(workers []*worker.Worker) bool {
	for _, wk := range workers {
		if !wk.Stopped() {
			return false
		}
	}
	return true
}
