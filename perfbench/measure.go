package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/scipioneer/smart/internal/obs"
)

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs is not modified. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func sumDur(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// peakRSSMB is the process's resident-set high-water mark (getrusage
// maxrss, which Linux reports in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// regionStats brackets the measured region with runtime.MemStats reads (the
// allocation volume and garbage-collector activity between start and stop),
// the process's CPU time, and the host's stolen time.
type regionStats struct {
	before, after  runtime.MemStats
	cpu0, cpu1     time.Duration
	steal0, steal1 float64
	total0, total1 float64
}

func (m *regionStats) start() {
	runtime.GC()
	runtime.ReadMemStats(&m.before)
	m.cpu0 = processCPU()
	m.steal0, m.total0 = hostSteal()
}

func (m *regionStats) stop() {
	m.steal1, m.total1 = hostSteal()
	m.cpu1 = processCPU()
	runtime.ReadMemStats(&m.after)
}

// cpuMS is the process CPU time (user + system) spent in the region.
func (m *regionStats) cpuMS() float64 { return ms(m.cpu1 - m.cpu0) }

// stealShare is the share of the host's CPU time the hypervisor took away
// during the region (0 when /proc/stat cannot be read).
func (m *regionStats) stealShare() float64 {
	if m.total1 <= m.total0 {
		return 0
	}
	return (m.steal1 - m.steal0) / (m.total1 - m.total0)
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostSteal reads the steal and total columns of /proc/stat's cpu line.
func hostSteal() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func (m *regionStats) allocMB() float64 {
	return float64(m.after.TotalAlloc-m.before.TotalAlloc) / (1 << 20)
}
func (m *regionStats) gcCycles() float64 { return float64(m.after.NumGC - m.before.NumGC) }
func (m *regionStats) gcPauseMS() float64 {
	return float64(m.after.PauseTotalNs-m.before.PauseTotalNs) / 1e6
}

// regDelta reads counters and histograms of the default registry before and
// after the measured region; the program's own metrics are the per-layer
// source for layers without a public timing entry point.
type regDelta struct{ before, after obs.Snapshot }

func (r *regDelta) start() { r.before = obs.DefaultRegistry().Snapshot() }
func (r *regDelta) stop()  { r.after = obs.DefaultRegistry().Snapshot() }

func (r *regDelta) counter(name string) float64 {
	return float64(r.after.Counters[name] - r.before.Counters[name])
}

// histSum returns the growth of a histogram's sum and count.
func (r *regDelta) histSum(name string) (sum float64, count int64) {
	a, b := r.after.Histograms[name], r.before.Histograms[name]
	return a.Sum - b.Sum, a.Count - b.Count
}

// setupSample is the least build time one set-up sample sums: a build of
// 0.1 ms timed alone is mostly timer and interrupt noise.
const setupSample = 2 * time.Millisecond

// setupTimes builds the workload's environment over and over, tearing down
// all but the last build, and returns the median of reps samples in
// seconds with the last environment. A sample is the mean time of as many
// consecutive builds as it takes to sum setupSample. The first warm builds
// pay for lazily initialised state and are not timed. A garbage collection
// before every build keeps one build's garbage out of the next one's time.
func setupTimes[E any](warm, reps int, build func() (E, error), teardown func(E)) (float64, E, error) {
	var env E
	var have bool
	buildOnce := func() (time.Duration, error) {
		if have {
			teardown(env)
		}
		runtime.GC()
		start := time.Now()
		e, err := build()
		d := time.Since(start)
		env, have = e, err == nil
		return d, err
	}
	for i := 0; i < warm; i++ {
		if _, err := buildOnce(); err != nil {
			return 0, env, err
		}
	}
	secs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		var sum time.Duration
		n := 0
		for sum < setupSample {
			d, err := buildOnce()
			if err != nil {
				return 0, env, err
			}
			sum += d
			n++
		}
		secs = append(secs, sum.Seconds()/float64(n))
	}
	return median(secs), env, nil
}

// maxTraceSpans bounds the spans a traced run keeps for its trace files
// (a smartd-mixed run records over half a million); per-layer totals count
// every span regardless.
const maxTraceSpans = 100_000

// spanLog keeps the spans of a traced run's measured region in memory. A
// nil *spanLog is the untraced mode: it subscribes to nothing and records
// nothing.
type spanLog struct {
	mu      sync.Mutex
	spans   []obs.Span
	dropped int
	// totals sums span durations by category and name; phase sums the
	// scheduler phase spans delivered through SubscribeSpans by name.
	totals  map[[2]string]time.Duration
	phase   map[string]time.Duration
	measure bool
	cancel  func()
}

func newSpanLog(on bool) *spanLog {
	if !on {
		return nil
	}
	l := &spanLog{totals: make(map[[2]string]time.Duration), phase: make(map[string]time.Duration)}
	l.cancel = obs.Default().Subscribe(l.add)
	return l
}

func (l *spanLog) add(sp obs.Span) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.measure {
		return
	}
	l.totals[[2]string{sp.Cat, sp.Name}] += sp.Dur
	if len(l.spans) < maxTraceSpans {
		l.spans = append(l.spans, sp)
	} else {
		l.dropped++
	}
}

// bench records one of the benchmark's own spans around a call into a
// layer.
func (l *spanLog) bench(name string, start time.Time, rank int) {
	if l == nil {
		return
	}
	l.add(obs.Span{Cat: "bench", Name: name, Start: start, Dur: time.Since(start), Rank: rank})
}

// phaseSub is handed to Scheduler.SubscribeSpans: it sums phase spans by
// name.
func (l *spanLog) phaseSub(sp obs.Span) {
	l.mu.Lock()
	if l.measure {
		l.phase[sp.Name] += sp.Dur
	}
	l.mu.Unlock()
}

func (l *spanLog) setMeasuring(on bool) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.measure = on
	l.mu.Unlock()
}

// phaseMS returns the summed time of one scheduler phase in milliseconds.
func (l *spanLog) phaseMS(name string) float64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return ms(l.phase[name])
}

// spanMS returns the summed duration of the recorded spans with the given
// category and name in milliseconds.
func (l *spanLog) spanMS(cat, name string) float64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return ms(l.totals[[2]string{cat, name}])
}

func (l *spanLog) stop() {
	if l != nil {
		l.cancel()
	}
}
