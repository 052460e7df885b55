package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/scipioneer/smart/internal/analytics"
	"github.com/scipioneer/smart/internal/core"
	"github.com/scipioneer/smart/internal/serve"
	"github.com/scipioneer/smart/internal/serve/client"
	"github.com/scipioneer/smart/internal/sim"
)

// The job mix: each client cycles through the five kinds, so every kind is
// a fifth of the jobs. The emulator draws standard normals, which the
// registry's bucketed apps range over [-4, 4).
const (
	jobHistogram = iota
	jobHistMultiStep
	jobKMeans
	jobMovingAvg
	jobStanding
	numJobKinds
)

var jobKindNames = [numJobKinds]string{"histogram", "histogram-multistep", "kmeans", "movingavg", "standing-moments"}

const (
	jobLo, jobHi   = -4.0, 4.0
	histBuckets    = 64
	histMultiSteps = 4
	kmSteps        = 144
	kmK, kmDims    = 4, 4
	kmIters        = 5
	maSteps        = 36
	maWindow       = 25
	standSteps     = 128
	standWindow    = 4
	standGrid      = 256
	smartdClients  = 2
	// smartdCyclesPerSecond is how many job cycles each client runs per
	// requested second. It is fixed rather than timed, so that every run
	// submits the same jobs whatever the host's speed: the server keeps
	// every finished job, so peak RSS grows with the job count. On the
	// reference host a cycle takes about a fifth of a second.
	smartdCyclesPerSecond = 5
)

// jobSpec is the j-th job of one client. Its seed is derived from the run
// seed, so the same run seed submits the same jobs. The multi-step
// histogram jobs are the exception: batch jobs over more than one step
// merge the carried-over combination map into itself, so their results are
// wrong on every input. Their inputs are fixed, so that they fail the same
// way whatever the seed; checkJob counts them as failed only when their
// result is exactly that fault's (see refCarriedHistogram).
func jobSpec(sz sizes, seed uint64, clientID, j int) (int, serve.JobSpec) {
	kind := (j + clientID) % numJobKinds
	spec := serve.JobSpec{
		Seed:    splitmix64(seed^uint64(clientID)<<40^uint64(j)) | 1,
		Threads: 1,
		Tenant:  fmt.Sprintf("client-%d", clientID),
	}
	switch kind {
	case jobHistogram:
		spec.App, spec.Steps, spec.Elems = "histogram", 1, sz.jobElems
		spec.Params.Buckets = histBuckets
	case jobHistMultiStep:
		spec.Seed = splitmix64(uint64(clientID)<<40^uint64(j)) | 1
		spec.App, spec.Steps, spec.Elems = "histogram", histMultiSteps, sz.jobElems
		spec.Params.Buckets = histBuckets
	case jobKMeans:
		spec.App, spec.Steps, spec.Elems = "kmeans", kmSteps, sz.jobElems
		spec.Params.K, spec.Params.Dims, spec.Params.Iters = kmK, kmDims, kmIters
	case jobMovingAvg:
		spec.App, spec.Steps, spec.Elems = "movingavg", maSteps, sz.jobElems/2
		spec.Params.Window = maWindow
	case jobStanding:
		spec.App, spec.Kind, spec.Steps, spec.Elems = "moments", serve.KindStanding, standSteps, 2*sz.jobElems
		spec.Params.WindowKind, spec.Params.WindowSize, spec.Params.GridSize = "tumbling", standWindow, standGrid
	}
	return kind, spec
}

// sdEnv is an in-process smartd: a serve.Server with 2 workers behind its
// own HTTP handler on a loopback listener.
type sdEnv struct {
	srv     *serve.Server
	hs      *http.Server
	served  chan struct{}
	clients []*client.Client
}

func buildSmartd(cfg config) (*sdEnv, error) {
	srv := serve.NewServer(serve.Config{Workers: 2, CheckpointDir: cfg.workDir})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(0)
		return nil, err
	}
	e := &sdEnv{srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan struct{})}
	go func() {
		defer close(e.served)
		_ = e.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	base := "http://" + ln.Addr().String()
	for i := 0; i < smartdClients; i++ {
		e.clients = append(e.clients, client.New(base))
	}
	// Ready means answering requests.
	if _, err := e.clients[0].Apps(context.Background()); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *sdEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.hs.Shutdown(ctx) // a timeout leaves connections to process exit
	<-e.served
	e.srv.Drain(time.Second)
}

// jobRec is one job as the client saw it.
type jobRec struct {
	kind int
	spec serve.JobSpec
	view serve.JobView
	lat  time.Duration
	err  error
}

// closedLoop has every client submit its next job as soon as the previous
// one returned, for cycles whole cycles of the five job kinds, so every run
// has the same mix.
func (e *sdEnv) closedLoop(sz sizes, seed uint64, firstJob, cycles int) []jobRec {
	var wg sync.WaitGroup
	recs := make([][]jobRec, len(e.clients))
	for ci, c := range e.clients {
		wg.Add(1)
		go func(ci int, c *client.Client) {
			defer wg.Done()
			for j := firstJob; j < firstJob+cycles*numJobKinds; j++ {
				kind, spec := jobSpec(sz, seed, ci, j)
				t := time.Now()
				view, err := c.SubmitWait(context.Background(), spec)
				recs[ci] = append(recs[ci], jobRec{kind: kind, spec: spec, view: view, lat: time.Since(t), err: err})
			}
		}(ci, c)
	}
	wg.Wait()
	var all []jobRec
	for _, r := range recs {
		all = append(all, r...)
	}
	return all
}

func runSmartd(cfg config) (*result, error) {
	res := newResult()
	log := newSpanLog(cfg.trace)
	defer log.stop()
	res.spans = log
	sz := cfg.sz

	setupS, env, err := setupTimes(sz.setupWarm, sz.setupReps, func() (*sdEnv, error) { return buildSmartd(cfg) }, (*sdEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	probe, err := core.NewScheduler[float64, int64](analytics.NewHistogram(jobLo, jobHi, histBuckets),
		core.SchedArgs{NumThreads: 1, ChunkSize: 1})
	if err != nil {
		return nil, err
	}
	res.knob("job specs leave engine and map_impl empty; a default scheduler reports engine=%s map_impl=%s",
		probe.Engine(), probe.MapImpl())

	// Warm-up: one job of every kind per client, from a job range the
	// measured loop never uses.
	warm := env.closedLoop(sz, cfg.seed, 1<<20, 1)
	for _, r := range warm {
		if r.err != nil {
			return nil, fmt.Errorf("warm-up job: %w", r.err)
		}
	}

	var region regionStats
	var reg regDelta
	region.start()
	reg.start()
	log.setMeasuring(true)
	start := time.Now()
	recs := env.closedLoop(sz, cfg.seed, 0, max(1, int(math.Round(cfg.seconds*smartdCyclesPerSecond))))
	wall := time.Since(start)
	log.setMeasuring(false)
	reg.stop()
	region.stop()

	var ops opLog
	var run, queue, delivery []float64
	var done []jobRec
	var windows, maxLive, emitted, chunks int64
	attempted := make([]int64, numJobKinds)
	failed := make([]int64, numJobKinds)
	for _, r := range recs {
		attempted[r.kind]++
		if r.err != nil || r.view.Status != serve.StatusDone {
			failed[r.kind]++
			continue
		}
		done = append(done, r)
		sub, start, fin, err := jobTimes(r.view)
		if err != nil {
			return nil, err
		}
		ops.add(r.lat, fin.Sub(start))
		queue = append(queue, ms(start.Sub(sub)))
		run = append(run, ms(fin.Sub(start)))
		delivery = append(delivery, ms(r.lat-fin.Sub(sub)))
		m, _ := r.view.Result.(map[string]any)
		if r.kind == jobStanding {
			windows += int64(num(m["windows"]))
		}
		if st, ok := m["stats"].(map[string]any); ok {
			maxLive = max(maxLive, int64(num(st["max_live_redobjs"])))
			emitted += int64(num(st["emitted_early"]))
			chunks += int64(num(st["chunks_processed"]))
		}
	}
	// Checks, outside the measured region. Every job must end done, with
	// the reference result. A multi-step histogram job whose result is
	// exactly the carry-over fault's is a failed operation, not a failed
	// run: see jobSpec.
	var checkErr error
	for _, r := range recs {
		if r.err != nil || r.view.Status != serve.StatusDone {
			checkErr = failf("job %s (%s) ended %q: %v %s", r.view.ID, jobKindNames[r.kind], r.view.Status, r.err, r.view.Error)
			break
		}
	}
	for i, err := range checkJobs(env.clients[0], done) {
		if errors.Is(err, errCarryOver) {
			failed[done[i].kind]++
		} else if err != nil && checkErr == nil {
			checkErr = err
		}
	}
	for k := range attempted {
		res.op("jobs "+jobKindNames[k], attempted[k], failed[k])
	}
	res.op("windows", windows, 0)
	if n := failed[jobHistMultiStep]; n > 0 {
		res.note("%d multi-step histogram jobs returned the carried-over counts of refCarriedHistogram", n)
	}
	jobs := float64(len(done))

	w := endToEndCommon(res, setupS, &ops, wall, &region)
	res.note("job_ms_p50=%.4f job_ms_p95=%.4f (whole region) jobs_per_s=%.3f windows_per_s=%.3f run_ms_p50=%.4f (%d jobs, %d clients closed loop)",
		w.opMS, quantile(ops.op, 0.95), w.opsPerS, float64(windows)/wall.Seconds(), w.analyticsMS, len(done), smartdClients)
	for k := 0; k < numJobKinds; k++ {
		var kl []float64
		for _, r := range done {
			if r.kind == k {
				kl = append(kl, ms(r.lat))
			}
		}
		res.note("%s job_ms p50=%.3f p95=%.3f", jobKindNames[k], median(kl), quantile(kl, 0.95))
	}
	registryLayers(res, &reg, &region, jobs)
	res.layer["stream.windows_per_s"] = float64(windows) / wall.Seconds()
	res.layer["serve.queue_wait_ms"] = meanOf(queue)
	res.layer["serve.run_ms"] = meanOf(run)
	res.layer["serve.delivery_ms"] = meanOf(delivery)
	res.layer["core.reduction_ms"] = log.spanMS("core", "reduction") / jobs
	res.layer["core.local_combine_ms"] = log.spanMS("core", "local combine") / jobs
	res.layer["core.post_combine_ms"] = log.spanMS("core", "post combine") / jobs
	res.layer["core.convert_ms"] = log.spanMS("core", "convert") / jobs
	res.layer["core.max_live_redobjs"] = float64(maxLive)
	res.layer["core.emitted_early"] = float64(emitted) / jobs
	res.layer["core.chunks"] = float64(chunks) / jobs
	return res, checkErr
}

func jobTimes(v serve.JobView) (sub, start, fin time.Time, err error) {
	for _, f := range []struct {
		s string
		t *time.Time
	}{{v.Submitted, &sub}, {v.Started, &start}, {v.Finished, &fin}} {
		if *f.t, err = time.Parse(time.RFC3339Nano, f.s); err != nil {
			return sub, start, fin, fmt.Errorf("job %s timestamps: %w", v.ID, err)
		}
	}
	return sub, start, fin, nil
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// num reads a JSON number (decoded as float64), 0 when absent.
func num(v any) float64 {
	f, _ := v.(float64)
	return f
}

func nums(v any) []float64 {
	arr, _ := v.([]any)
	out := make([]float64, len(arr))
	for i, x := range arr {
		out[i] = num(x)
	}
	return out
}

func ints(v any) []int64 {
	fs := nums(v)
	out := make([]int64, len(fs))
	for i, f := range fs {
		out[i] = int64(f)
	}
	return out
}

// emulatorSteps regenerates a job's input: steps time-steps of a fresh
// sim.Emulator with the job's seed.
func emulatorSteps(spec serve.JobSpec) ([][]float64, error) {
	em, err := sim.NewEmulator(sim.EmulatorConfig{StepElems: spec.Elems, Seed: spec.Seed})
	if err != nil {
		return nil, err
	}
	out := make([][]float64, spec.Steps)
	for s := range out {
		if err := em.Step(); err != nil {
			return nil, err
		}
		out[s] = append([]float64(nil), em.Data()...)
	}
	return out, nil
}

// jobCentroids is the registry's documented k-means start: k centroids
// spread evenly from lo towards hi on every dimension.
func jobCentroids(k, dims int, lo, hi float64) []float64 {
	flat := make([]float64, k*dims)
	for c := 0; c < k; c++ {
		for d := 0; d < dims; d++ {
			flat[c*dims+d] = lo + (hi-lo)*float64(c)/float64(k)
		}
	}
	return flat
}

// checkJobs checks every job on two goroutines (the host's core count) and
// returns each job's result.
func checkJobs(c *client.Client, jobs []jobRec) []error {
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	const workers = 2
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(jobs); i += workers {
				errs[i] = checkJob(c, jobs[i])
			}
		}(w)
	}
	wg.Wait()
	return errs
}

// checkJob compares one finished job's result with plain computations over
// its regenerated input.
func checkJob(c *client.Client, r jobRec) error {
	steps, err := emulatorSteps(r.spec)
	if err != nil {
		return err
	}
	m, _ := r.view.Result.(map[string]any)
	name := fmt.Sprintf("job %s (%s)", r.view.ID, jobKindNames[r.kind])
	switch r.kind {
	case jobHistogram, jobHistMultiStep:
		got := ints(m["buckets"])
		want := make([]int64, histBuckets)
		for _, s := range steps {
			for b, n := range refHistogram(s, jobLo, jobHi, histBuckets) {
				want[b] += n
			}
		}
		err := checkCounts(name+" buckets", got, want)
		if err != nil && r.kind == jobHistMultiStep &&
			checkCounts("", got, refCarriedHistogram(steps, jobLo, jobHi, histBuckets, r.spec.Threads)) == nil {
			return fmt.Errorf("%s: %w", name, errCarryOver)
		}
		return err
	case jobKMeans:
		cents := jobCentroids(kmK, kmDims, jobLo, jobHi)
		for _, s := range steps {
			cents, _ = refLloyd(s, kmDims, cents, kmIters)
		}
		var got []float64
		for _, row := range m["centroids"].([]any) {
			got = append(got, nums(row)...)
		}
		return checkFloats(name+" centroids", got, cents, relTol, 1)
	case jobMovingAvg:
		last := steps[len(steps)-1]
		if n := int(num(m["len"])); n != len(last) {
			return failf("%s output length %d, want %d", name, n, len(last))
		}
		head := nums(m["head"])
		return checkFloats(name+" head", head, refSlidingMean(last, maWindow)[:len(head)], relTol, 1)
	case jobStanding:
		return checkStanding(c, name, r, steps)
	}
	return nil
}

// checkStanding reads a standing job's fired windows back from its result
// stream and checks that they tile the steps and that each window's
// per-cell variance matches a two-pass computation over its steps.
func checkStanding(c *client.Client, name string, r jobRec, steps [][]float64) error {
	var got [][2]int64
	var values []map[string]any
	err := c.Stream(context.Background(), r.view.ID, func(rec serve.StreamRecord) error {
		if rec.Type == "window" && rec.Final {
			got = append(got, [2]int64{rec.WinStart, rec.WinEnd})
			v, _ := rec.Value.(map[string]any)
			values = append(values, v)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("%s stream: %w", name, err)
	}
	m, _ := r.view.Result.(map[string]any)
	if n := int(num(m["windows"])); n != len(got) {
		return failf("%s reports %d windows, its stream carried %d", name, n, len(got))
	}
	if err := checkTiling(got, refTumbling(int64(r.spec.Steps), standWindow)); err != nil {
		return errors.Join(failf("%s", name), err)
	}
	for i, w := range got {
		var elems []float64
		for s := w[0]; s < min(w[1], int64(len(steps))); s++ {
			elems = append(elems, steps[s]...)
		}
		wantMean, wantVar := refCellMoments(elems, standGrid)
		if err := checkVariances(fmt.Sprintf("%s window %d variance", name, i), nums(values[i]["variance"]), wantVar, wantMean); err != nil {
			return err
		}
	}
	return nil
}
