package main

import (
	"time"

	"github.com/scipioneer/smart/internal/analytics"
	"github.com/scipioneer/smart/internal/core"
	"github.com/scipioneer/smart/internal/insitu"
	"github.com/scipioneer/smart/internal/sim"
)

// The Heat3D field starts in [0, 10) plus 100 inside a central ball and
// diffuses with insulated walls, so it stays inside [0, 110).
const heatLo, heatHi = 0.0, 110.0

// tsEnv is the heat3d-timeshare environment: one Heat3D rank on 2 threads
// analysed in place after every step by two 2-thread schedulers.
type tsEnv struct {
	heat    *sim.Heat3D
	ts      *timedSim
	hist    *core.Scheduler[float64, int64]
	histOut []int64
	mom     *core.Scheduler[float64, float64]
	momOut  []float64
}

func buildTimeshare(cfg config, log *spanLog) (*tsEnv, error) {
	sz := cfg.sz
	e := sz.heatEdge
	heat, err := sim.NewHeat3D(sim.Heat3DConfig{NX: e, NY: e, NZ: e, Threads: 2, Seed: cfg.seed})
	if err != nil {
		return nil, err
	}
	hist, err := core.NewScheduler[float64, int64](analytics.NewHistogram(heatLo, heatHi, sz.histBuckets),
		core.SchedArgs{NumThreads: 2, ChunkSize: 1})
	if err != nil {
		return nil, err
	}
	mom, err := core.NewScheduler[float64, float64](analytics.NewMoments(sz.momGrid, 0),
		core.SchedArgs{NumThreads: 2, ChunkSize: 1})
	if err != nil {
		return nil, err
	}
	n := len(heat.Data())
	return &tsEnv{
		heat: heat, ts: &timedSim{Simulation: heat, log: log},
		hist: hist, histOut: make([]int64, sz.histBuckets),
		mom: mom, momOut: make([]float64, (n+sz.momGrid-1)/sz.momGrid),
	}, nil
}

func runTimeshare(cfg config) (*result, error) {
	res := newResult()
	log := newSpanLog(cfg.trace)
	defer log.stop()
	res.spans = log
	sz := cfg.sz

	setupS, env, err := setupTimes(sz.setupWarm, sz.setupReps,
		func() (*tsEnv, error) { return buildTimeshare(cfg, log) }, func(*tsEnv) {})
	if err != nil {
		return nil, err
	}
	if log != nil {
		env.hist.SubscribeSpans(log.phaseSub)
		env.mom.SubscribeSpans(log.phaseSub)
	}
	heat0 := env.heat.TotalHeat()
	res.knob("histogram engine=%s map_impl=%s", env.hist.Engine(), env.hist.MapImpl())
	res.knob("moments engine=%s map_impl=%s", env.mom.Engine(), env.mom.MapImpl())

	var ops opLog
	var splits []float64
	var steals, chunks int64
	var verify func(data []float64) error
	analyze := func(data []float64) error {
		t0 := time.Now()
		env.hist.ResetCombinationMap()
		// Convert writes only the buckets present in the map, so clear
		// the ones a previous step filled.
		clear(env.histOut)
		if err := env.hist.Run(data, env.histOut); err != nil {
			return err
		}
		hs := env.hist.Stats()
		splits = append(splits, splitRatio(hs.SplitTimes))
		steals += hs.Steals
		chunks += hs.ChunksProcessed
		env.mom.ResetCombinationMap()
		if err := env.mom.Run(data, env.momOut); err != nil {
			return err
		}
		end := time.Now()
		mst := env.mom.Stats()
		splits = append(splits, splitRatio(mst.SplitTimes))
		steals += mst.Steals
		chunks += mst.ChunksProcessed
		ops.add(end.Sub(env.ts.start), end.Sub(t0))
		log.bench("analytics step", t0, 0)
		if verify != nil {
			return verify(data)
		}
		return nil
	}

	// Warm-up: fill caches and let lazily built state settle.
	if _, err := insitu.TimeSharing(env.ts, analyze, insitu.TimeSharingConfig{Steps: sz.round}); err != nil {
		return nil, err
	}
	ops, splits, steals, chunks = opLog{}, nil, 0, 0
	env.ts.durs = nil

	var region regionStats
	var reg regDelta
	region.start()
	reg.start()
	log.setMeasuring(true)
	var attempted, failed int64
	dl := newDeadline(cfg.seconds)
	for !dl.passed() {
		timings, err := insitu.TimeSharing(env.ts, analyze, insitu.TimeSharingConfig{Steps: sz.round})
		if err != nil {
			attempted += int64(len(timings)) + 1
			failed++
			continue
		}
		attempted += int64(len(timings))
	}
	wall := time.Since(dl.start)
	log.setMeasuring(false)
	reg.stop()
	region.stop()
	res.op("steps", attempted, failed)
	steps := float64(ops.n())

	w := endToEndCommon(res, setupS, &ops, wall, &region)
	res.note("step_ms_p50=%.4f steps_per_s=%.3f analytics_ms_p50=%.4f alloc_mb_per_step=%.4f peak_rss_mb=%.2f",
		w.opMS, w.opsPerS, w.analyticsMS, res.e2e["alloc_mb_per_op"], res.e2e["peak_rss_mb"])

	registryLayers(res, &reg, &region, steps)
	res.layer["sim.step_ms"] = ms(sumDur(env.ts.durs)) / steps
	res.layer["core.reduction_ms"] = log.phaseMS("reduction") / steps
	res.layer["core.local_combine_ms"] = log.phaseMS("local combine") / steps
	res.layer["core.convert_ms"] = log.phaseMS("convert") / steps
	res.layer["core.split_max_over_mean"] = median(splits)
	res.layer["core.steals"] = float64(steals) / steps
	res.layer["core.chunks"] = float64(chunks) / steps
	res.layer["core.max_live_redobjs"] = float64(max(env.hist.Stats().MaxLiveRedObjs, env.mom.Stats().MaxLiveRedObjs))

	// Checks, outside the measured region: every verified step is compared
	// with plain single-threaded computations over the same buffer, whose
	// time is the framework-overhead baseline.
	var baseline []time.Duration
	verify = func(data []float64) error {
		t0 := time.Now()
		wantHist := refHistogram(data, heatLo, heatHi, sz.histBuckets)
		wantMean, wantVar := refCellMoments(data, sz.momGrid)
		baseline = append(baseline, time.Since(t0))
		if err := checkCounts("histogram", env.histOut, wantHist); err != nil {
			return err
		}
		gotMean, gotVar := momentsOf(env.mom.CombinationMap(), len(wantMean))
		if err := checkFloats("cell mean", gotMean, wantMean, relTol, 1); err != nil {
			return err
		}
		if err := checkVariances("cell variance", gotVar, wantVar, wantMean); err != nil {
			return err
		}
		return checkVariances("converted variance", env.momOut, wantVar, wantMean)
	}
	if _, err := insitu.TimeSharing(env.ts, analyze, insitu.TimeSharingConfig{Steps: sz.verifySteps}); err != nil {
		return res, err
	}
	res.layer["baseline.analytics_ms"] = ms(sumDur(baseline)) / float64(len(baseline))
	return res, checkConserved("total heat", heat0, env.heat.TotalHeat())
}

// momentsOf reads per-cell means and variances out of a moments
// combination map keyed by cell index.
func momentsOf(m core.CombMap, cells int) (mean, variance []float64) {
	mean = make([]float64, cells)
	variance = make([]float64, cells)
	for k, obj := range m {
		if k < 0 || k >= cells {
			continue
		}
		o := obj.(*analytics.MomentsObj)
		mean[k], variance[k] = o.Mean, o.Variance()
	}
	return mean, variance
}

// checkVariances compares variances within relTol, each relative to its
// cell's squared mean: a variance is a difference of terms of that size,
// so that is the scale its rounding error lives on.
func checkVariances(name string, got, want, mean []float64) error {
	if len(got) != len(want) {
		return failf("%s: %d values, want %d", name, len(got), len(want))
	}
	for i := range want {
		if !closeTo(got[i], want[i], relTol, mean[i]*mean[i]) {
			return failf("%s[%d] = %.17g, want %.17g", name, i, got[i], want[i])
		}
	}
	return nil
}
