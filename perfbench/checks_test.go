package main

import (
	"encoding/json"
	"errors"
	"testing"

	"github.com/scipioneer/smart/internal/serve"
)

// mustReject fails the test unless err is a correctness-check failure.
func mustReject(t *testing.T, what string, err error) {
	t.Helper()
	var cerr *checkError
	if !errors.As(err, &cerr) {
		t.Fatalf("%s: want a check failure, got %v", what, err)
	}
}

func mustAccept(t *testing.T, what string, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

func TestChecksRejectPerturbedOutputs(t *testing.T) {
	counts := []int64{3, 0, 7}
	mustAccept(t, "equal counts", checkCounts("h", counts, []int64{3, 0, 7}))
	mustReject(t, "count off by one", checkCounts("h", counts, []int64{3, 1, 7}))

	vals := []float64{1, 2.5, -4}
	mustAccept(t, "rounding-level difference", checkFloats("v", []float64{1, 2.5 * (1 + 1e-13), -4}, vals, relTol, 1))
	mustReject(t, "value off by 1e-6", checkFloats("v", []float64{1, 2.5 + 1e-6, -4}, vals, relTol, 1))

	mean := []float64{10, 10}
	mustAccept(t, "variance within rounding", checkVariances("var", []float64{1e-3 + 1e-12, 2}, []float64{1e-3, 2}, mean))
	mustReject(t, "variance off by 1%", checkVariances("var", []float64{1.01e-3, 2}, []float64{1e-3, 2}, []float64{0.1, 0.1}))

	mustAccept(t, "conserved", checkConserved("heat", 1e6, 1e6*(1+1e-12)))
	mustReject(t, "drifted", checkConserved("heat", 1e6, 1e6+1))
	mustReject(t, "flipped byte", checkBytesEqual("map", []byte{1, 2, 3}, []byte{1, 2, 4}))
	mustReject(t, "counts short of records", checkSum("k-means", []int64{5, 4}, 10))
	mustReject(t, "fed != consumed", checkEqualInts("steps", 10, 10, 9))
	mustAccept(t, "live objects at the bound", checkEarlyBound(25, 25, 1))
	mustReject(t, "live objects over the bound", checkEarlyBound(26, 25, 1))

	want := refTumbling(12, 4)
	mustAccept(t, "tiling", checkTiling([][2]int64{{0, 4}, {4, 8}, {8, 12}}, want))
	mustReject(t, "window dropped", checkTiling([][2]int64{{0, 4}, {8, 12}}, want))
	mustReject(t, "windows overlap", checkTiling([][2]int64{{0, 4}, {3, 8}, {8, 12}}, want))
}

// tcpStepFixture is a consistent pair of rank snapshots for one step.
func tcpStepFixture() (sizes, tcpSnap, tcpSnap) {
	sz := sizes{tcpGrid: 2, kmDims: 2, kmIters: 2}
	d0 := []float64{1, 2, 3, 5, 8, 13, 21, 34}
	d1 := []float64{2, 4, 6, 8, 10, 12, 14, 16}
	global := append(append([]float64(nil), d0...), d1...)
	mean, variance := refCellMoments(global, sz.tcpGrid)
	before := []float64{0, 0, 20, 20}
	after, counts := refLloyd(global, sz.kmDims, before, sz.kmIters)
	enc := []byte("combination map")
	s0 := tcpSnap{data: d0, enc: enc, mean: mean, variance: variance, before: before, after: after, counts: counts}
	s1 := tcpSnap{data: d1, enc: append([]byte(nil), enc...)}
	return sz, s0, s1
}

func TestTCPStepCheckRejectsPerturbations(t *testing.T) {
	sz, s0, s1 := tcpStepFixture()
	mustAccept(t, "consistent step", checkTCPStep(sz, s0, s1))

	perturb := map[string]func(s0, s1 *tcpSnap){
		"cell mean":        func(s0, _ *tcpSnap) { s0.mean = append([]float64{s0.mean[0] + 0.5}, s0.mean[1:]...) },
		"cell variance":    func(s0, _ *tcpSnap) { s0.variance = append([]float64{s0.variance[0] * 1.01}, s0.variance[1:]...) },
		"rank 1 map bytes": func(_, s1 *tcpSnap) { s1.enc = []byte("combination maP") },
		"centroid":         func(s0, _ *tcpSnap) { s0.after = append([]float64{s0.after[0] + 1e-3}, s0.after[1:]...) },
		"count":            func(s0, _ *tcpSnap) { s0.counts = [][]int64{s0.counts[0], {s0.counts[1][0] - 1, s0.counts[1][1]}} },
		"checkpoint":       func(s0, _ *tcpSnap) { s0.checkpointRestore = failf("restored checkpoint differs") },
	}
	for name, p := range perturb {
		sz, s0, s1 := tcpStepFixture()
		p(&s0, &s1)
		mustReject(t, name, checkTCPStep(sz, s0, s1))
	}
}

// jobFixture builds a finished job whose result is the reference answer,
// shaped the way the client decodes it from JSON.
func jobFixture(t *testing.T, kind int) jobRec {
	t.Helper()
	_, spec := jobSpec(tinySizes, 7, 0, kind)
	steps, err := emulatorSteps(spec)
	if err != nil {
		t.Fatal(err)
	}
	var result map[string]any
	switch kind {
	case jobHistogram, jobHistMultiStep:
		want := make([]int64, histBuckets)
		for _, s := range steps {
			for b, n := range refHistogram(s, jobLo, jobHi, histBuckets) {
				want[b] += n
			}
		}
		result = map[string]any{"buckets": want}
	case jobKMeans:
		cents := jobCentroids(kmK, kmDims, jobLo, jobHi)
		for _, s := range steps {
			cents, _ = refLloyd(s, kmDims, cents, kmIters)
		}
		rows := make([][]float64, kmK)
		for c := range rows {
			rows[c] = cents[c*kmDims : (c+1)*kmDims]
		}
		result = map[string]any{"centroids": rows}
	case jobMovingAvg:
		last := steps[len(steps)-1]
		result = map[string]any{"len": len(last), "head": refSlidingMean(last, maWindow)[:32]}
	}
	raw, err := json.Marshal(result)
	if err != nil {
		t.Fatal(err)
	}
	var decoded any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	return jobRec{kind: kind, spec: spec, view: serve.JobView{ID: "job-test", Status: serve.StatusDone, Result: decoded}}
}

func TestJobCheckRejectsPerturbedResults(t *testing.T) {
	for _, kind := range []int{jobHistogram, jobHistMultiStep, jobKMeans, jobMovingAvg} {
		r := jobFixture(t, kind)
		mustAccept(t, jobKindNames[kind], checkJob(nil, r))

		m := r.view.Result.(map[string]any)
		switch kind {
		case jobHistogram, jobHistMultiStep:
			b := m["buckets"].([]any)
			b[len(b)/2] = b[len(b)/2].(float64) + 1
		case jobKMeans:
			row := m["centroids"].([]any)[0].([]any)
			row[0] = row[0].(float64) + 1e-3
		case jobMovingAvg:
			h := m["head"].([]any)
			h[3] = h[3].(float64) * 1.001
		}
		mustReject(t, "perturbed "+jobKindNames[kind], checkJob(nil, r))
	}
}

// TestJobCheckSingleOutCarryOver pins that only the exact result of the
// known carry-over fault counts as that fault: any other wrong histogram
// still fails the run.
func TestJobCheckSingleOutCarryOver(t *testing.T) {
	r := jobFixture(t, jobHistMultiStep)
	steps, err := emulatorSteps(r.spec)
	if err != nil {
		t.Fatal(err)
	}
	carried := refCarriedHistogram(steps, jobLo, jobHi, histBuckets, r.spec.Threads)
	b := make([]any, len(carried))
	for i, n := range carried {
		b[i] = float64(n)
	}
	r.view.Result = map[string]any{"buckets": b}
	if err := checkJob(nil, r); !errors.Is(err, errCarryOver) {
		t.Fatalf("carried-over result: want errCarryOver, got %v", err)
	}
	b[len(b)/2] = b[len(b)/2].(float64) + 1
	mustReject(t, "perturbed carried-over result", checkJob(nil, r))

	single := jobFixture(t, jobHistogram)
	single.view.Result = map[string]any{"buckets": b}
	mustReject(t, "carried-over result on a one-step job", checkJob(nil, single))
}
