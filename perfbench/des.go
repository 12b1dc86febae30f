package main

import (
	"math"
	"time"

	"specsync/internal/cluster"
	"specsync/internal/msg"
	"specsync/internal/obs"
	"specsync/internal/scheme"
)

// specAdaptiveASP is the scheme every workload runs: SpecSync-Adaptive
// speculation on top of asynchronous SGD.
var specAdaptiveASP = scheme.Config{Base: scheme.ASP, Spec: scheme.SpecAdaptive}

// desWorkload is a simulated training job measured to a fixed virtual
// horizon.
type desWorkload struct {
	build   func(seed int64) (cluster.Workload, error)
	workers int
	horizon time.Duration
}

func (d desWorkload) prepare(seed int64, traced bool) (job, error) {
	wl, err := d.build(seed)
	if err != nil {
		return nil, err
	}
	// A zero loss target is never reached, so every run simulates exactly
	// the horizon instead of stopping at convergence.
	wl.TargetLoss = 0
	j := &desJob{}
	if traced {
		j.model = &timedModel{Model: wl.Model}
		wl.Model = j.model
	}
	j.cfg = cluster.Config{
		Workload:   wl,
		Scheme:     specAdaptiveASP,
		Workers:    d.workers,
		Seed:       seed,
		MaxVirtual: d.horizon,
		// Traced runs keep the workers' pull and push spans for the
		// round-trip metrics; spans only record, so the digest holds.
		Obs: obs.New(obs.Options{Spans: traced}),
	}
	return j, nil
}

type desJob struct {
	cfg   cluster.Config
	model *timedModel // traced runs only
}

func (j *desJob) close() {}

func (j *desJob) run() (*runStats, error) {
	var res *cluster.Result
	st, err := measure(j.model != nil, func() error {
		var err error
		res, err = cluster.Run(j.cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	st.model = j.model
	st.iters = res.TotalIters
	st.aborts = res.Aborts
	st.resyncs = res.ReSyncs
	st.wireBytes = res.Transfer.TotalBytes()
	reg := j.cfg.Obs.Registry()
	st.events = reg.SumCounters("specsync_sim_steps_total")
	st.delivered = reg.SumCounters("specsync_sim_delivered_total")
	_, pulls := res.Transfer.KindBytes(msg.KindPullReq)
	_, pushes := res.Transfer.KindBytes(msg.KindPushReq)
	_, notifies := res.Transfer.KindBytes(msg.KindNotify)
	st.serverMsgs, st.schedMsgs = pulls+pushes, notifies
	for _, sp := range j.cfg.Obs.Spans().Spans() {
		us := float64(sp.End.Sub(sp.Start)) / float64(time.Microsecond)
		switch sp.Name {
		case "pull":
			st.pullRTT = append(st.pullRTT, us)
		case "push":
			st.pushRTT = append(st.pushRTT, us)
		}
	}
	if pts := res.Loss.Snapshot(); len(pts) > 0 {
		st.initLoss = pts[0].V
	}
	st.finalLoss = res.FinalLoss
	st.digest = res.ParamsDigest
	if res.Elapsed < j.cfg.MaxVirtual {
		st.fail("simulated %v of the %v horizon", res.Elapsed, j.cfg.MaxVirtual)
	}
	checkLoss(st)
	return st, nil
}

// checkLoss requires a finite final loss below the initial loss: the loss at
// the initial parameters on live-tcp, and at the first probe on the DES,
// whose initial parameters stay inside cluster.Run.
func checkLoss(st *runStats) {
	if math.IsNaN(st.finalLoss) || math.IsInf(st.finalLoss, 0) || st.finalLoss >= st.initLoss {
		st.fail("final loss %v, initial loss %v", st.finalLoss, st.initLoss)
	}
}
