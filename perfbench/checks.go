package main

import (
	"bytes"
	"fmt"
	"math"
)

// checkError marks a failed correctness check: the program produced a
// wrong answer. It makes the benchmark exit non-zero.
type checkError struct{ msg string }

func (e *checkError) Error() string { return "check failed: " + e.msg }

func failf(format string, args ...any) error {
	return &checkError{msg: fmt.Sprintf(format, args...)}
}

// relTol is the relative tolerance for floating-point results whose
// summation order differs between the program and the reference.
const relTol = 1e-9

// closeTo reports whether got is within rel of want, relative to the larger
// of |want| and scale (scale keeps values near zero from demanding an
// absolute precision the data never had).
func closeTo(got, want, rel, scale float64) bool {
	return math.Abs(got-want) <= rel*math.Max(math.Abs(want), scale)
}

func checkCounts(name string, got, want []int64) error {
	if len(got) != len(want) {
		return failf("%s: %d counts, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return failf("%s[%d] = %d, want %d", name, i, got[i], want[i])
		}
	}
	return nil
}

// checkFloats compares got with want element-wise within rel, relative to
// each value or to scale, whichever is larger.
func checkFloats(name string, got, want []float64, rel, scale float64) error {
	if len(got) != len(want) {
		return failf("%s: %d values, want %d", name, len(got), len(want))
	}
	for i := range want {
		if !closeTo(got[i], want[i], rel, scale) {
			return failf("%s[%d] = %.17g, want %.17g", name, i, got[i], want[i])
		}
	}
	return nil
}

// checkConserved checks that a conserved total (Heat3D's heat under
// insulated boundaries) did not drift.
func checkConserved(name string, initial, final float64) error {
	if !closeTo(final, initial, relTol, 1) {
		return failf("%s not conserved: %.17g -> %.17g", name, initial, final)
	}
	return nil
}

func checkBytesEqual(name string, a, b []byte) error {
	if !bytes.Equal(a, b) {
		return failf("%s: %d bytes vs %d bytes differ", name, len(a), len(b))
	}
	return nil
}

// checkSum checks that per-cluster counts add up to the number of records.
func checkSum(name string, counts []int64, records int64) error {
	var s int64
	for _, c := range counts {
		s += c
	}
	if s != records {
		return failf("%s sum to %d, want %d records", name, s, records)
	}
	return nil
}

// checkEqualInts checks that operation counters that must agree do.
func checkEqualInts(name string, vals ...int64) error {
	for _, v := range vals[1:] {
		if v != vals[0] {
			return failf("%s disagree: %v", name, vals)
		}
	}
	return nil
}

// checkEarlyBound checks the paper's early-emission bound: with triggers
// on, at most one window width of reduction objects is alive per analytics
// thread.
func checkEarlyBound(maxLive int64, window, threads int) error {
	if maxLive > int64(window*threads) {
		return failf("max live reduction objects %d exceed window %d x %d threads", maxLive, window, threads)
	}
	return nil
}

// checkTiling checks that the fired windows are exactly want: every step
// covered once, no gap, no overlap, no extra window.
func checkTiling(got, want [][2]int64) error {
	if len(got) != len(want) {
		return failf("%d windows fired, want %d (%v)", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			return failf("window %d is [%d,%d), want [%d,%d)", i, got[i][0], got[i][1], want[i][0], want[i][1])
		}
	}
	return nil
}
