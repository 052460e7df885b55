package main

// Plain single-threaded reference computations. They share no code with the
// program: each is the textbook definition of what the analytics computes,
// so a workload check compares the program against an independent answer
// rather than against a stored copy of an earlier run.

import (
	"errors"
	"math"
)

// refHistogram counts data into buckets equal-width bins over [lo, hi);
// values below lo land in the first bin and values at or above hi in the
// last.
func refHistogram(data []float64, lo, hi float64, buckets int) []int64 {
	counts := make([]int64, buckets)
	width := (hi - lo) / float64(buckets)
	for _, v := range data {
		b := int((v - lo) / width)
		if b < 0 {
			b = 0
		}
		if b >= buckets {
			b = buckets - 1
		}
		counts[b]++
	}
	return counts
}

// errCarryOver marks a batch histogram job whose result is exactly
// refCarriedHistogram's: the known fault, not a new one.
var errCarryOver = errors.New("result is the carried-over histogram of a known fault")

// refCarriedHistogram is what a batch histogram job over several steps
// returns while the scheduler carries its combination map over between
// steps without a reset and each of threads reduction maps starts as a
// clone of it: after every step the combination map holds its old counts,
// threads clones of them, and the step's counts, c = (threads+1)c + n.
// It models that fault so that a check can tell it apart from any other
// wrong result.
func refCarriedHistogram(steps [][]float64, lo, hi float64, buckets, threads int) []int64 {
	c := make([]int64, buckets)
	for _, s := range steps {
		for b, n := range refHistogram(s, lo, hi, buckets) {
			c[b] = int64(threads+1)*c[b] + n
		}
	}
	return c
}

// refCellMoments splits data into cells of grid consecutive elements and
// returns each cell's mean and population variance, computed in two passes
// (mean first, then the sum of squared deviations).
func refCellMoments(data []float64, grid int) (mean, variance []float64) {
	cells := (len(data) + grid - 1) / grid
	mean = make([]float64, cells)
	variance = make([]float64, cells)
	for c := 0; c < cells; c++ {
		cell := data[c*grid : min((c+1)*grid, len(data))]
		s := 0.0
		for _, v := range cell {
			s += v
		}
		m := s / float64(len(cell))
		ss := 0.0
		for _, v := range cell {
			ss += (v - m) * (v - m)
		}
		mean[c], variance[c] = m, ss/float64(len(cell))
	}
	return mean, variance
}

// refLloyd runs iters Lloyd iterations of k-means over points of dims
// coordinates, starting from the flat centroid matrix init. It returns the
// final centroids and, per iteration, the number of points assigned to each
// cluster. A cluster that receives no point keeps its centroid.
func refLloyd(points []float64, dims int, init []float64, iters int) ([]float64, [][]int64) {
	k := len(init) / dims
	cents := append([]float64(nil), init...)
	var counts [][]int64
	for it := 0; it < iters; it++ {
		sums := make([]float64, len(cents))
		n := make([]int64, k)
		for p := 0; p+dims <= len(points); p += dims {
			best, bestD := 0, math.Inf(1)
			for c := 0; c < k; c++ {
				d := 0.0
				for i := 0; i < dims; i++ {
					diff := points[p+i] - cents[c*dims+i]
					d += diff * diff
				}
				if d < bestD {
					best, bestD = c, d
				}
			}
			for i := 0; i < dims; i++ {
				sums[best*dims+i] += points[p+i]
			}
			n[best]++
		}
		for c := 0; c < k; c++ {
			if n[c] > 0 {
				for i := 0; i < dims; i++ {
					cents[c*dims+i] = sums[c*dims+i] / float64(n[c])
				}
			}
		}
		counts = append(counts, n)
	}
	return cents, counts
}

// refSlidingMean returns, for every position p, the mean of the window of
// win elements centred on p, clamped to the ends of data (win is odd).
func refSlidingMean(data []float64, win int) []float64 {
	half := win / 2
	out := make([]float64, len(data))
	for p := range data {
		lo, hi := max(p-half, 0), min(p+half, len(data)-1)
		s := 0.0
		for _, v := range data[lo : hi+1] {
			s += v
		}
		out[p] = s / float64(hi-lo+1)
	}
	return out
}

// refTumbling returns the tumbling windows [start, end) of size steps that
// cover steps 0..steps-1, the last one cut short by the end of the stream.
func refTumbling(steps, size int64) [][2]int64 {
	var out [][2]int64
	for s := int64(0); s < steps; s += size {
		out = append(out, [2]int64{s, s + size})
	}
	return out
}
