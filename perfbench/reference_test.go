package main

import (
	"reflect"
	"testing"
	"time"
)

func TestRefHistogramHandWorked(t *testing.T) {
	// Width 1 over [0, 4): -3 clamps into bin 0, 9 into bin 3.
	got := refHistogram([]float64{0.5, 1.5, 1.7, -3, 9}, 0, 4, 4)
	if want := []int64{2, 2, 0, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("refHistogram = %v, want %v", got, want)
	}
}

func TestRefCarriedHistogramHandWorked(t *testing.T) {
	// Per-step counts over two bins: [1 1], [2 0], [0 1]. One thread:
	// c = 2c + n gives [1 1], [4 2], [8 5]; two threads: c = 3c + n gives
	// [1 1], [5 3], [15 10].
	steps := [][]float64{{0.5, 1.5}, {0.1, 0.2}, {1.9}}
	if got, want := refCarriedHistogram(steps, 0, 2, 2, 1), []int64{8, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("1 thread: %v, want %v", got, want)
	}
	if got, want := refCarriedHistogram(steps, 0, 2, 2, 2), []int64{15, 10}; !reflect.DeepEqual(got, want) {
		t.Fatalf("2 threads: %v, want %v", got, want)
	}
	if got, want := refCarriedHistogram(steps[:1], 0, 2, 2, 1), refHistogram(steps[0], 0, 2, 2); !reflect.DeepEqual(got, want) {
		t.Fatalf("one step: %v, want the plain histogram %v", got, want)
	}
}

func TestRefCellMomentsHandWorked(t *testing.T) {
	mean, variance := refCellMoments([]float64{1, 2, 3, 4, 10}, 2)
	if want := []float64{1.5, 3.5, 10}; !reflect.DeepEqual(mean, want) {
		t.Fatalf("mean = %v, want %v", mean, want)
	}
	if want := []float64{0.25, 0.25, 0}; !reflect.DeepEqual(variance, want) {
		t.Fatalf("variance = %v, want %v", variance, want)
	}
}

func TestRefLloydHandWorked(t *testing.T) {
	// 1-D points 0, 1 go to the centroid at 0 and 9, 10 to the one at 10;
	// the second iteration is a fixed point.
	cents, counts := refLloyd([]float64{0, 1, 9, 10}, 1, []float64{0, 10}, 2)
	if want := []float64{0.5, 9.5}; !reflect.DeepEqual(cents, want) {
		t.Fatalf("centroids = %v, want %v", cents, want)
	}
	if want := [][]int64{{2, 2}, {2, 2}}; !reflect.DeepEqual(counts, want) {
		t.Fatalf("counts = %v, want %v", counts, want)
	}
	// An empty cluster keeps its centroid.
	cents, _ = refLloyd([]float64{0, 1}, 1, []float64{0, 100}, 1)
	if want := []float64{0.5, 100}; !reflect.DeepEqual(cents, want) {
		t.Fatalf("centroids with an empty cluster = %v, want %v", cents, want)
	}
}

func TestRefSlidingMeanHandWorked(t *testing.T) {
	got := refSlidingMean([]float64{1, 2, 3, 4, 5}, 3)
	if want := []float64{1.5, 2, 3, 4, 4.5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("refSlidingMean = %v, want %v", got, want)
	}
}

func TestRefTumblingHandWorked(t *testing.T) {
	got := refTumbling(8, 4)
	if want := [][2]int64{{0, 4}, {4, 8}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("refTumbling = %v, want %v", got, want)
	}
}

func TestStatisticsHandWorked(t *testing.T) {
	if got := quantile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
	if got := quantile([]float64{1, 2, 3, 4, 5}, 0.75); got != 4 {
		t.Fatalf("p75 = %v, want 4", got)
	}
	if got := splitRatio([]time.Duration{1, 1, 2}); got != 1.5 {
		t.Fatalf("splitRatio = %v, want 1.5", got)
	}
}
