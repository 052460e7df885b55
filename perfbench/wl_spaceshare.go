package main

import (
	"math"
	"time"

	"github.com/scipioneer/smart/internal/analytics"
	"github.com/scipioneer/smart/internal/core"
	"github.com/scipioneer/smart/internal/insitu"
	"github.com/scipioneer/smart/internal/sim"
)

// ssEnv is the lulesh-spaceshare-window environment: a 1-thread Lulesh
// proxy feeding a 1-thread moving-average scheduler through the
// scheduler's circular buffer.
type ssEnv struct {
	cfg   config
	lul   *sim.Lulesh
	ts    *timedSim
	sched *core.Scheduler[float64, float64]
	out   []float64
}

func (e *ssEnv) newSched() (*core.Scheduler[float64, float64], error) {
	n := len(e.lul.Data())
	return core.NewScheduler[float64, float64](analytics.NewMovingAverage(e.cfg.sz.window, n, 0, true),
		core.SchedArgs{NumThreads: 1, ChunkSize: 1})
}

func buildSpaceShare(cfg config, log *spanLog) (*ssEnv, error) {
	lul, err := sim.NewLulesh(sim.LuleshConfig{Edge: cfg.sz.luleshEdge, Threads: 1, Seed: cfg.seed})
	if err != nil {
		return nil, err
	}
	e := &ssEnv{cfg: cfg, lul: lul, ts: &timedSim{Simulation: lul, log: log}, out: make([]float64, len(lul.Data()))}
	if e.sched, err = e.newSched(); err != nil {
		return nil, err
	}
	return e, nil
}

// ssRun is what one SpaceSharing call recorded.
type ssRun struct {
	fed, consumed  int64
	feedDur        []time.Duration
	ops            opLog
	maxLive        int64
	emitted        int64
	producerBlock  time.Duration
	consumerWait   time.Duration
	bufProduced    int
	bufConsumed    int
	fedData, outs  [][]float64
	simulatedSteps int
}

// spaceShare runs steps space-shared steps through sched. With keep set,
// it also keeps a copy of every fed step and every output for the checks.
func (e *ssEnv) spaceShare(sched *core.Scheduler[float64, float64], steps int, keep bool, log *spanLog) (*ssRun, error) {
	// The producer-side fields (fed, feedDur, fedData, the timed sim's
	// durations) are read only after SpaceSharing has waited for the
	// producer goroutine to finish.
	r := &ssRun{}
	feed := func(d []float64) error {
		t := time.Now()
		err := sched.Feed(d)
		r.feedDur = append(r.feedDur, time.Since(t))
		log.bench("feed", t, 0)
		if err == nil {
			r.fed++
			if keep {
				r.fedData = append(r.fedData, append([]float64(nil), d...))
			}
		}
		return err
	}
	consume := func() error {
		t := time.Now()
		_, wait0 := sched.BufferBlockedTime()
		err := sched.RunShared2(e.out)
		end := time.Now()
		_, wait1 := sched.BufferBlockedTime()
		log.bench("consume", t, 0)
		if err != nil {
			// Unblock a producer waiting on the full buffer, or
			// SpaceSharing would wait for it forever.
			sched.DrainFeed()
			return err
		}
		r.consumed++
		r.ops.add(end.Sub(t), end.Sub(t)-(wait1-wait0))
		st := sched.Stats()
		r.maxLive = max(r.maxLive, st.MaxLiveRedObjs)
		r.emitted += st.EmittedEarly
		if keep {
			r.outs = append(r.outs, append([]float64(nil), e.out...))
		}
		return nil
	}
	durs0 := len(e.ts.durs)
	_, err := insitu.SpaceSharing(e.ts, feed, consume, sched.CloseFeed, insitu.SpaceSharingConfig{Steps: steps})
	r.simulatedSteps = len(e.ts.durs) - durs0
	r.producerBlock, r.consumerWait = sched.BufferBlockedTime()
	r.bufProduced, r.bufConsumed, _ = sched.BufferStats()
	return r, err
}

// ssStepsPerSecond is how many steps the measured SpaceSharing call runs
// per requested second. The count is fixed rather than timed, so every run
// does the same work; on the reference host a step takes about 8.5 ms.
const ssStepsPerSecond = 115

func runSpaceShare(cfg config) (*result, error) {
	res := newResult()
	log := newSpanLog(cfg.trace)
	defer log.stop()
	res.spans = log
	sz := cfg.sz

	setupS, env, err := setupTimes(sz.setupWarm, sz.setupReps, func() (*ssEnv, error) { return buildSpaceShare(cfg, log) }, func(*ssEnv) {})
	if err != nil {
		return nil, err
	}
	res.knob("moving average engine=%s map_impl=%s buffer_cells=default", env.sched.Engine(), env.sched.MapImpl())

	// Warm-up on the set-up scheduler. A closed feed cannot be reopened,
	// so each SpaceSharing call gets a fresh scheduler.
	if _, err := env.spaceShare(env.sched, 4*sz.round, false, nil); err != nil {
		return nil, err
	}
	steps := max(1, int(math.Round(cfg.seconds*ssStepsPerSecond)))

	sched, err := env.newSched()
	if err != nil {
		return nil, err
	}
	if log != nil {
		sched.SubscribeSpans(log.phaseSub)
	}
	var region regionStats
	var reg regDelta
	region.start()
	reg.start()
	log.setMeasuring(true)
	start := time.Now()
	run, runErr := env.spaceShare(sched, steps, false, log)
	wall := time.Since(start)
	log.setMeasuring(false)
	reg.stop()
	region.stop()
	var failed int64
	if runErr != nil {
		failed = 1
	}
	res.op("steps", int64(run.ops.n())+failed, failed)
	n := float64(run.ops.n())

	w := endToEndCommon(res, setupS, &run.ops, wall, &region)
	res.note("step_ms_p50=%.4f (consumer cadence) steps_per_s=%.3f analytics_ms_p50=%.4f alloc_mb_per_step=%.4f peak_rss_mb=%.2f",
		w.opMS, w.opsPerS, w.analyticsMS, res.e2e["alloc_mb_per_op"], res.e2e["peak_rss_mb"])

	registryLayers(res, &reg, &region, n)
	res.layer["sim.step_ms"] = ms(sumDur(env.ts.durs[len(env.ts.durs)-run.simulatedSteps:])) / float64(max(run.simulatedSteps, 1))
	res.layer["insitu.feed_ms"] = ms(sumDur(run.feedDur)) / float64(max(len(run.feedDur), 1))
	res.layer["ringbuf.producer_blocked_ms"] = ms(run.producerBlock) / n
	res.layer["ringbuf.consumer_wait_ms"] = ms(run.consumerWait) / n
	res.layer["core.reduction_ms"] = log.phaseMS("reduction") / n
	res.layer["core.local_combine_ms"] = log.phaseMS("local combine") / n
	res.layer["core.convert_ms"] = log.phaseMS("convert") / n
	res.layer["core.split_max_over_mean"] = splitRatio(sched.Stats().SplitTimes)
	res.layer["core.chunks"] = float64(sched.Stats().ChunksProcessed)
	res.layer["core.max_live_redobjs"] = float64(run.maxLive)
	res.layer["core.emitted_early"] = float64(run.emitted) / n

	// Checks, outside the measured region. A failed step ends its
	// SpaceSharing call early, so the step accounting only has to add up
	// on a run without one.
	if runErr != nil {
		res.note("measured run stopped early: %v", runErr)
	} else if err := checkEqualInts("fed, consumed, buffered-in, buffered-out and simulated steps",
		int64(steps), run.fed, run.consumed, int64(run.bufProduced), int64(run.bufConsumed), int64(run.simulatedSteps)); err != nil {
		return res, err
	}
	if err := checkEarlyBound(run.maxLive, sz.window, 1); err != nil {
		return res, err
	}
	vsched, err := env.newSched()
	if err != nil {
		return res, err
	}
	vrun, err := env.spaceShare(vsched, sz.verifySteps, true, nil)
	if err != nil {
		return res, err
	}
	for i := range vrun.outs {
		if err := checkFloats("moving average", vrun.outs[i], refSlidingMean(vrun.fedData[i], sz.window), relTol, 1); err != nil {
			return res, err
		}
	}
	return res, checkEarlyBound(vrun.maxLive, sz.window, 1)
}
