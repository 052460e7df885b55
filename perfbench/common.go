package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"github.com/scipioneer/smart/internal/obs"
	"github.com/scipioneer/smart/internal/sim"
)

// sizes fixes every workload's input sizes. fullSizes is the benchmark;
// tinySizes keeps the smoke test fast.
type sizes struct {
	setupWarm   int // untimed environment builds before the timed ones
	setupReps   int // timed set-up samples per run; setup_s is their median
	verifySteps int // steps (in-situ) checked against the references
	round       int // steps per TimeSharing call

	heatEdge    int // heat3d-timeshare grid is heatEdge^3
	histBuckets int
	momGrid     int // moments cell size in elements

	tcpEdge int // heat3d-tcp-2rank global grid is tcpEdge^3, split in z
	tcpGrid int
	kmK     int
	kmDims  int
	kmIters int

	luleshEdge int // lulesh-spaceshare-window field is luleshEdge^3
	window     int

	jobElems int // smartd-mixed elements per emulator step
}

var fullSizes = sizes{
	setupWarm: 5, setupReps: 51, verifySteps: 2, round: 8,
	heatEdge: 40, histBuckets: 100, momGrid: 8,
	tcpEdge: 24, tcpGrid: 4, kmK: 4, kmDims: 4, kmIters: 4,
	luleshEdge: 20, window: 25,
	jobElems: 2048,
}

var tinySizes = sizes{
	setupWarm: 1, setupReps: 2, verifySteps: 1, round: 2,
	heatEdge: 12, histBuckets: 16, momGrid: 8,
	tcpEdge: 8, tcpGrid: 4, kmK: 3, kmDims: 4, kmIters: 2,
	luleshEdge: 8, window: 5,
	jobElems: 512,
}

// timedSim wraps a simulation so every Step is timed from outside the
// program. start is the current step's start, which the analytics callback
// uses to time the whole step (simulation plus analytics).
type timedSim struct {
	sim.Simulation
	start time.Time
	durs  []time.Duration
	log   *spanLog
	rank  int
}

func (t *timedSim) Step() error {
	t.start = time.Now()
	err := t.Simulation.Step()
	t.durs = append(t.durs, time.Since(t.start))
	t.log.bench("sim step", t.start, t.rank)
	return err
}

// splitRatio is the slowest reduction split over the mean split time of
// one Run: 1 is a perfectly balanced schedule.
func splitRatio(splits []time.Duration) float64 {
	if len(splits) == 0 {
		return 0
	}
	var sum, hi time.Duration
	for _, d := range splits {
		sum += d
		hi = max(hi, d)
	}
	if sum == 0 {
		return 0
	}
	return float64(hi) * float64(len(splits)) / float64(sum)
}

// registryLayers fills the per-layer metrics the program exposes only
// through the default metrics registry, normalised per op, plus the Go
// runtime's collector activity over the measured region.
func registryLayers(res *result, reg *regDelta, region *regionStats, ops float64) {
	res.layer["core.keys_touched"] = reg.counter("smart_core_keys_touched_total") / ops
	res.layer["core.gc_bytes"] = reg.counter("smart_core_global_combine_bytes_total") / ops
	var collSec float64
	for _, op := range []string{"barrier", "bcast", "reduce", "reducestream", "allreduce", "gather", "allgather", "scatter"} {
		s, _ := reg.histSum(`smart_mpi_collective_seconds{op="` + op + `"}`)
		collSec += s
	}
	res.layer["mpi.collective_ms"] = collSec * 1e3 / ops
	res.layer["mpi.messages"] = (reg.counter(`smart_mpi_messages_total{transport="tcp",dir="send"}`) +
		reg.counter(`smart_mpi_messages_total{transport="mem",dir="send"}`)) / ops
	raw := reg.counter(`smart_mpi_wire_bytes_raw_total{transport="tcp"}`)
	enc := reg.counter(`smart_mpi_wire_bytes_encoded_total{transport="tcp"}`)
	res.layer["mpi.wire_raw_mb"] = raw / (1 << 20) / ops
	res.layer["mpi.wire_encoded_mb"] = enc / (1 << 20) / ops
	if enc > 0 {
		res.layer["codec.ratio"] = raw / enc
	}
	res.note("codec bases: wire raw %.0f B, wire encoded %.0f B over the measured region", raw, enc)
	if s, n := reg.histSum("smart_stream_window_seconds"); n > 0 {
		res.layer["stream.window_ms"] = s * 1e3 / float64(n)
	}
	res.layer["stream.windows_fired"] = reg.counter("smart_stream_windows_fired_total") / ops
	res.layer["serve.admission_rejects"] = reg.counter(`smart_serve_admission_rejects_total{cause="queue_full"}`) +
		reg.counter(`smart_serve_admission_rejects_total{cause="mem_pressure"}`) +
		reg.counter(`smart_serve_admission_rejects_total{cause="draining"}`)
	res.layer["runtime.gc_cycles"] = region.gcCycles()
	res.layer["runtime.gc_pause_ms"] = region.gcPauseMS()
}

// opLog records every op of the measured region: how long it took and how
// long its analytics part took.
type opLog struct {
	op, ana []float64 // ms
}

func (l *opLog) add(op, ana time.Duration) {
	l.op = append(l.op, ms(op))
	l.ana = append(l.ana, ms(ana))
}

func (l *opLog) n() int { return len(l.op) }

// wallFigures are a run's wall-clock figures over the whole measured
// region: the header reports them, but they are not end-to-end metrics,
// because on the reference host they follow the hypervisor's steal from
// run to run (see README.md).
type wallFigures struct {
	opMS, opsPerS, analyticsMS float64
}

// endToEndCommon fills the end-to-end metrics from the op log and the
// measured region's statistics, and returns the wall-clock figures.
func endToEndCommon(res *result, setupS float64, l *opLog, wall time.Duration, region *regionStats) wallFigures {
	res.e2e["setup_s"] = setupS
	res.e2e["cpu_ms_per_op"] = region.cpuMS() / float64(max(l.n(), 1))
	res.e2e["alloc_mb_per_op"] = region.allocMB() / float64(max(l.n(), 1))
	res.e2e["peak_rss_mb"] = peakRSSMB()
	w := wallFigures{opMS: median(l.op), opsPerS: float64(l.n()) / wall.Seconds(), analyticsMS: median(l.ana)}
	res.note("%d ops in %.2f s; op_ms p10=%.3f p50=%.3f p90=%.3f p95=%.3f, ops/s %.3f",
		l.n(), wall.Seconds(), quantile(l.op, 0.1), w.opMS, quantile(l.op, 0.9), quantile(l.op, 0.95), w.opsPerS)
	res.note("host steal %.1f%% of CPU time during the region", 100*region.stealShare())
	return w
}

// writeTraces writes a traced run's spans as JSONL (the format
// obs.Observer.SetTraceWriter produces) and as a Chrome trace_event file
// through obs.WriteChromeTrace.
func writeTraces(cfg config, name string, l *spanLog) error {
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(cfg.traceDir, name)
	l.mu.Lock()
	spans := append([]obs.Span(nil), l.spans...)
	l.mu.Unlock()

	events := make([]obs.TraceEvent, len(spans))
	jf, err := os.Create(base + ".jsonl")
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(jf)
	enc := json.NewEncoder(bw)
	for i, sp := range spans {
		events[i] = obs.TraceEvent{Start: sp.Start, Cat: sp.Cat, Name: sp.Name, Dur: sp.Dur,
			Trace: sp.Trace, ID: sp.ID, Parent: sp.Parent, Rank: sp.Rank, Attrs: sp.Attrs}
		if err := enc.Encode(struct {
			TS    string         `json:"ts"`
			Cat   string         `json:"cat"`
			Name  string         `json:"name"`
			DurNS int64          `json:"dur_ns"`
			Rank  int            `json:"rank,omitempty"`
			Attrs map[string]any `json:"attrs,omitempty"`
		}{sp.Start.UTC().Format(time.RFC3339Nano), sp.Cat, sp.Name, sp.Dur.Nanoseconds(), sp.Rank, sp.Attrs}); err != nil {
			jf.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		jf.Close()
		return err
	}
	if err := jf.Close(); err != nil {
		return err
	}
	cf, err := os.Create(base + ".chrome.json")
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(cf, events); err != nil {
		cf.Close()
		return err
	}
	return cf.Close()
}

// splitmix64 derives independent per-job seeds from the run seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
