package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/scipioneer/smart/internal/analytics"
	"github.com/scipioneer/smart/internal/core"
	"github.com/scipioneer/smart/internal/insitu"
	"github.com/scipioneer/smart/internal/mpi"
	"github.com/scipioneer/smart/internal/sim"
)

// countingKMeans is the k-means application with its per-iteration cluster
// sizes captured just before PostCombine turns them into new centroids
// (and resets them). It is application code, so capturing sizes there
// adds nothing to the runtime.
type countingKMeans struct {
	*analytics.KMeans
	record bool
	counts [][]int64
}

func (c *countingKMeans) PostCombine(com core.CombMap) {
	if c.record {
		n := make([]int64, c.K)
		for k, obj := range com {
			if k >= 0 && k < c.K {
				n[k] = obj.(*analytics.ClusterObj).Size
			}
		}
		c.counts = append(c.counts, n)
	}
	c.KMeans.PostCombine(com)
}

// tcpSnap is what one rank keeps of a verified step for the checks.
type tcpSnap struct {
	data              []float64
	enc               []byte
	mean, variance    []float64
	before, after     []float64
	counts            [][]int64
	checkpointRestore error
}

// tcpRank is one rank of heat3d-tcp-2rank: its Heat3D slab, a fine-grained
// moments scheduler and a small iterative k-means, both combining globally
// over the rank's TCP communicator.
type tcpRank struct {
	rank   int
	cfg    config
	heat   *sim.Heat3D
	ts     *timedSim
	base   int
	cells  int
	mom    *core.Scheduler[float64, float64]
	momOut []float64
	kmApp  *countingKMeans
	km     *core.Scheduler[float64, []float64]
	kmOut  [][]float64
	log    *spanLog

	ops              opLog
	ckWrite, ckRead  []time.Duration
	ckBytes          int64
	ckTried, ckFails int64
	ckMagic          string
	verify           bool
	snaps            []tcpSnap
}

type tcpEnv struct {
	comms []*mpi.Comm
	ranks []*tcpRank
}

func (e *tcpEnv) close() {
	for _, c := range e.comms {
		c.Close()
	}
}

// tcpCentroids spreads the k initial centroids evenly over the field's
// value range on every dimension.
func tcpCentroids(k, dims int) []float64 {
	flat := make([]float64, k*dims)
	for c := 0; c < k; c++ {
		for d := 0; d < dims; d++ {
			flat[c*dims+d] = heatLo + (heatHi-heatLo)*(float64(c)+0.5)/float64(k)
		}
	}
	return flat
}

func buildTCP(cfg config, log *spanLog) (*tcpEnv, error) {
	sz := cfg.sz
	comms, err := mpi.NewTCPWorld(2)
	if err != nil {
		return nil, err
	}
	env := &tcpEnv{comms: comms}
	e := sz.tcpEdge
	for r, comm := range comms {
		heat, err := sim.NewHeat3D(sim.Heat3DConfig{NX: e, NY: e, NZ: e, Threads: 1, Comm: comm, Seed: cfg.seed})
		if err != nil {
			env.close()
			return nil, err
		}
		z0, _ := heat.LocalZ()
		rk := &tcpRank{rank: r, cfg: cfg, heat: heat, ts: &timedSim{Simulation: heat, log: log, rank: r},
			base: z0 * e * e, cells: e * e * e / sz.tcpGrid, log: log}
		rk.mom, err = rk.newMoments(comm)
		if err != nil {
			env.close()
			return nil, err
		}
		rk.momOut = make([]float64, rk.cells)
		rk.kmApp = &countingKMeans{KMeans: analytics.NewKMeans(sz.kmK, sz.kmDims)}
		rk.km, err = core.NewScheduler[float64, []float64](rk.kmApp, core.SchedArgs{
			NumThreads: 1, ChunkSize: sz.kmDims, NumIters: sz.kmIters, Comm: comm,
			Extra: tcpCentroids(sz.kmK, sz.kmDims),
		})
		if err != nil {
			env.close()
			return nil, err
		}
		rk.kmOut = make([][]float64, sz.kmK)
		env.ranks = append(env.ranks, rk)
	}
	return env, nil
}

func (r *tcpRank) newMoments(comm *mpi.Comm) (*core.Scheduler[float64, float64], error) {
	return core.NewScheduler[float64, float64](analytics.NewMoments(r.cfg.sz.tcpGrid, r.base),
		core.SchedArgs{NumThreads: 1, ChunkSize: 1, Comm: comm})
}

// analyze is one rank's in-situ analytics for one step; rank 0 also writes
// a checkpoint of the global moments map and restores it into a fresh
// scheduler.
func (r *tcpRank) analyze(data []float64) error {
	t0 := time.Now()
	r.mom.ResetCombinationMap()
	if err := r.mom.Run(data, r.momOut); err != nil {
		return err
	}
	var snap tcpSnap
	if r.verify {
		snap.data = append([]float64(nil), data...)
		enc, err := r.mom.EncodeCombinationMap()
		if err != nil {
			return err
		}
		snap.enc = enc
		snap.mean, snap.variance = momentsOf(r.mom.CombinationMap(), r.cells)
		snap.before = flatten(r.kmApp.Centroids(r.km.CombinationMap()))
		r.kmApp.counts, r.kmApp.record = nil, true
	}
	if err := r.km.Run(data, r.kmOut); err != nil {
		return err
	}
	if r.rank == 0 {
		snap.checkpointRestore = r.checkpoint()
	}
	end := time.Now()
	r.ops.add(end.Sub(r.ts.start), end.Sub(t0))
	r.log.bench("analytics step", t0, r.rank)
	if r.verify {
		snap.after = flatten(r.kmApp.Centroids(r.km.CombinationMap()))
		snap.counts = r.kmApp.counts
		r.kmApp.record = false
		r.snaps = append(r.snaps, snap)
	}
	return nil
}

// checkpoint writes the moments combination map and restores it into a
// fresh scheduler. In the measured region a failed write or restore is
// counted, not fatal. In verification mode it is a failed check, and the
// restored scheduler re-writes its checkpoint and the returned error
// reports whether the two files differ.
func (r *tcpRank) checkpoint() error {
	dir := r.cfg.workDir
	path := filepath.Join(dir, "rank0.ck")
	r.ckTried++
	t0 := time.Now()
	err := r.mom.WriteCheckpoint(path)
	t1 := time.Now()
	r.log.bench("checkpoint write", t0, 0)
	var fresh *core.Scheduler[float64, float64]
	if err == nil {
		fresh, err = r.newMoments(nil)
	}
	if err == nil {
		err = fresh.ReadCheckpoint(path)
	}
	t2 := time.Now()
	r.log.bench("checkpoint restore", t1, 0)
	if err != nil {
		if r.verify {
			return failf("checkpoint write and restore: %v", err)
		}
		r.ckFails++
		return nil
	}
	r.ckWrite = append(r.ckWrite, t1.Sub(t0))
	r.ckRead = append(r.ckRead, t2.Sub(t1))
	written, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	r.ckBytes += int64(len(written))
	if r.ckMagic == "" && len(written) >= 8 {
		r.ckMagic = string(written[:8])
	}
	if !r.verify {
		return nil
	}
	again := filepath.Join(dir, "rank0-restored.ck")
	if err := fresh.WriteCheckpoint(again); err != nil {
		return err
	}
	rewritten, err := os.ReadFile(again)
	if err != nil {
		return err
	}
	return checkBytesEqual("restored checkpoint re-encoding", rewritten, written)
}

func flatten(rows [][]float64) []float64 {
	var out []float64
	for _, r := range rows {
		out = append(out, r...)
	}
	return out
}

// roundTimeout bounds one round of collective steps: a rank that fails
// mid-round leaves its peer blocked in a collective, which must end the run
// rather than hang it.
const roundTimeout = 60 * time.Second

// runRound steps both ranks steps times concurrently and returns rank 0's
// completed steps and the first error.
func (e *tcpEnv) runRound(steps int) (int, error) {
	var wg sync.WaitGroup
	done := make([]int, len(e.ranks))
	errs := make([]error, len(e.ranks))
	for i, rk := range e.ranks {
		wg.Add(1)
		go func(i int, rk *tcpRank) {
			defer wg.Done()
			t, err := insitu.TimeSharing(rk.ts, rk.analyze, insitu.TimeSharingConfig{Steps: steps})
			done[i], errs[i] = len(t), err
		}(i, rk)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(roundTimeout):
		e.close()
		<-finished
		return 0, fmt.Errorf("round of %d steps did not finish within %v", steps, roundTimeout)
	}
	for _, err := range errs {
		if err != nil {
			return done[0], err
		}
	}
	return done[0], nil
}

func runTCP(cfg config) (*result, error) {
	res := newResult()
	log := newSpanLog(cfg.trace)
	defer log.stop()
	res.spans = log
	sz := cfg.sz

	setupS, env, err := setupTimes(sz.setupWarm, sz.setupReps, func() (*tcpEnv, error) { return buildTCP(cfg, log) }, (*tcpEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	r0 := env.ranks[0]
	if log != nil {
		r0.mom.SubscribeSpans(log.phaseSub)
		r0.km.SubscribeSpans(log.phaseSub)
	}
	heatTotal := func() float64 { return env.ranks[0].heat.TotalHeat() + env.ranks[1].heat.TotalHeat() }
	heat0 := heatTotal()
	res.knob("moments engine=%s map_impl=%s; kmeans engine=%s map_impl=%s",
		r0.mom.Engine(), r0.mom.MapImpl(), r0.km.Engine(), r0.km.MapImpl())
	res.knob("wire encoding rank0->rank1=%s rank1->rank0=%s", env.comms[0].WireEncoding(1), env.comms[1].WireEncoding(0))

	if _, err := env.runRound(sz.round); err != nil {
		return nil, err
	}
	res.knob("checkpoint format=%s", r0.ckMagic)
	reset := func() {
		for _, rk := range env.ranks {
			rk.ops, rk.ckWrite, rk.ckRead = opLog{}, nil, nil
			rk.ckBytes, rk.ckTried, rk.ckFails = 0, 0, 0
			rk.ts.durs = nil
		}
	}
	reset()

	var region regionStats
	var reg regDelta
	region.start()
	reg.start()
	log.setMeasuring(true)
	var attempted, failed int64
	dl := newDeadline(cfg.seconds)
	for !dl.passed() {
		n, err := env.runRound(sz.round)
		attempted += int64(n)
		if err != nil {
			attempted++
			failed++
		}
	}
	wall := time.Since(dl.start)
	log.setMeasuring(false)
	reg.stop()
	region.stop()
	steps := float64(r0.ops.n())
	res.op("steps", attempted, failed)
	res.op("iterations", attempted*int64(sz.kmIters), failed*int64(sz.kmIters))
	res.op("checkpoints", r0.ckTried, r0.ckFails)

	w := endToEndCommon(res, setupS, &r0.ops, wall, &region)
	res.note("step_ms_p50=%.4f steps_per_s=%.3f analytics_ms_p50=%.4f alloc_mb_per_step=%.4f peak_rss_mb=%.2f (rank 0)",
		w.opMS, w.opsPerS, w.analyticsMS, res.e2e["alloc_mb_per_op"], res.e2e["peak_rss_mb"])

	registryLayers(res, &reg, &region, steps)
	res.layer["sim.step_ms"] = ms(sumDur(r0.ts.durs)) / steps
	res.layer["core.reduction_ms"] = log.phaseMS("reduction") / steps
	res.layer["core.local_combine_ms"] = log.phaseMS("local combine") / steps
	res.layer["core.global_combine_ms"] = log.phaseMS("global combine") / steps
	res.layer["core.post_combine_ms"] = log.phaseMS("post combine") / steps
	res.layer["core.convert_ms"] = log.phaseMS("convert") / steps
	res.layer["core.split_max_over_mean"] = splitRatio(r0.mom.Stats().SplitTimes)
	res.layer["core.chunks"] = float64(r0.mom.Stats().ChunksProcessed + r0.km.Stats().ChunksProcessed)
	res.layer["core.max_live_redobjs"] = float64(max(r0.mom.Stats().MaxLiveRedObjs, r0.km.Stats().MaxLiveRedObjs))
	if n := len(r0.ckWrite); n > 0 {
		res.layer["core.checkpoint_write_ms"] = ms(sumDur(r0.ckWrite)) / float64(n)
		res.layer["core.checkpoint_read_ms"] = ms(sumDur(r0.ckRead)) / float64(n)
		res.layer["core.checkpoint_mb"] = float64(r0.ckBytes) / (1 << 20) / float64(n)
	}
	res.note("checkpoint write ms p50=%.3f p95=%.3f, restore ms p50=%.3f p95=%.3f",
		median(durationsMS(r0.ckWrite)), quantile(durationsMS(r0.ckWrite), 0.95),
		median(durationsMS(r0.ckRead)), quantile(durationsMS(r0.ckRead), 0.95))
	res.note("per-layer mpi, codec and gc_bytes figures count both ranks; the rest are rank 0's")

	// Checks, outside the measured region.
	for _, rk := range env.ranks {
		rk.verify = true
	}
	if _, err := env.runRound(sz.verifySteps); err != nil {
		return res, err
	}
	for i := range r0.snaps {
		if err := checkTCPStep(sz, r0.snaps[i], env.ranks[1].snaps[i]); err != nil {
			return res, err
		}
	}
	return res, checkConserved("total heat", heat0, heatTotal())
}

// checkTCPStep checks one verified step of both ranks against serial
// computations over the assembled global field.
func checkTCPStep(sz sizes, s0, s1 tcpSnap) error {
	if s0.checkpointRestore != nil {
		return s0.checkpointRestore
	}
	global := append(append([]float64(nil), s0.data...), s1.data...)
	wantMean, wantVar := refCellMoments(global, sz.tcpGrid)
	if err := checkFloats("global cell mean", s0.mean, wantMean, relTol, 1); err != nil {
		return err
	}
	if err := checkVariances("global cell variance", s0.variance, wantVar, wantMean); err != nil {
		return err
	}
	if err := checkBytesEqual("combination map rank 0 vs rank 1", s0.enc, s1.enc); err != nil {
		return err
	}
	wantCents, wantCounts := refLloyd(global, sz.kmDims, s0.before, sz.kmIters)
	if err := checkFloats("k-means centroids", s0.after, wantCents, relTol, 1); err != nil {
		return err
	}
	if len(s0.counts) != len(wantCounts) {
		return failf("k-means ran %d iterations, want %d", len(s0.counts), len(wantCounts))
	}
	for it := range wantCounts {
		if err := checkSum(fmt.Sprintf("k-means counts (iteration %d)", it), s0.counts[it], int64(len(global)/sz.kmDims)); err != nil {
			return err
		}
		if err := checkCounts(fmt.Sprintf("k-means counts (iteration %d)", it), s0.counts[it], wantCounts[it]); err != nil {
			return err
		}
	}
	return nil
}
