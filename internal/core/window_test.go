package core

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"
)

// TestRunWindowByteIdentical pins the streaming contract of the re-entrant
// window entry point: one scheduler recycled across a sequence of windows
// must produce, for every window, exactly the bytes a fresh scheduler
// produces over that window's elements — both engines, both map
// implementations, with window lengths that shrink and grow so the arena
// store's retained arrays are exercised at both transitions.
func TestRunWindowByteIdentical(t *testing.T) {
	full := histInput(6000)
	windows := [][2]int{{0, 1000}, {1000, 3000}, {3000, 3100}, {3100, 6000}}
	for _, engine := range []string{EngineStatic, EngineStealing} {
		for _, impl := range storeImpls() {
			t.Run(engine+"/"+impl, func(t *testing.T) {
				args := SchedArgs{NumThreads: 3, ChunkSize: 1, NumIters: 1,
					CombineShards: 4, Engine: engine, MapImpl: impl}
				recycled := MustNewScheduler[int, int64](bucketApp{width: 10}, args)
				for wi, w := range windows {
					in := full[w[0]:w[1]]
					outR := make([]int64, 10)
					if err := recycled.RunWindowContext(context.Background(), in, outR); err != nil {
						t.Fatal(err)
					}
					encR, err := recycled.EncodeCombinationMap()
					if err != nil {
						t.Fatal(err)
					}
					fresh := MustNewScheduler[int, int64](bucketApp{width: 10}, args)
					outF := make([]int64, 10)
					if err := fresh.Run(in, outF); err != nil {
						t.Fatal(err)
					}
					encF, err := fresh.EncodeCombinationMap()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(encR, encF) {
						t.Errorf("window %d: recycled encoding differs from fresh scheduler", wi)
					}
					if !reflect.DeepEqual(outR, outF) {
						t.Errorf("window %d: recycled output %v, fresh %v", wi, outR, outF)
					}
				}
			})
		}
	}
}

// TestRunWindow2ByteIdentical is the gen_keys (window-analytics) variant:
// fixed-size tumbling windows through one recycled scheduler versus a fresh
// scheduler per window. The static subtests compare the encoded combination
// map and the output byte for byte. The stealing subtests compare key sets
// and per-key counts exactly and the floating-point sums to the rounding
// bound of windowSumsAgree: steals add segment boundaries that depend on
// timing, and those regroup floating-point sums at rounding level between
// any two runs (docs/ARCHITECTURE.md, "Execution engine"), so byte identity
// across independent stealing runs holds only for exact arithmetic. State
// carried over from an earlier window still shows as extra keys or inflated
// counts.
func TestRunWindow2ByteIdentical(t *testing.T) {
	const winLen, half = 500, 3
	full := make([]float64, 4*winLen)
	for i := range full {
		full[i] = float64((i*13)%97) / 7
	}
	for _, engine := range []string{EngineStatic, EngineStealing} {
		for _, impl := range storeImpls() {
			t.Run(engine+"/"+impl, func(t *testing.T) {
				args := SchedArgs{NumThreads: 2, ChunkSize: 1, NumIters: 1,
					CombineShards: 4, Engine: engine, MapImpl: impl}
				app := movingSumApp{half: half, total: winLen}
				recycled := MustNewScheduler[float64, float64](app, args)
				for wi := 0; wi < len(full)/winLen; wi++ {
					in := full[wi*winLen : (wi+1)*winLen]
					outR := make([]float64, winLen)
					if err := recycled.RunWindow2Context(context.Background(), in, outR); err != nil {
						t.Fatal(err)
					}
					fresh := MustNewScheduler[float64, float64](app, args)
					outF := make([]float64, winLen)
					if err := fresh.Run2(in, outF); err != nil {
						t.Fatal(err)
					}
					if engine == EngineStealing {
						windowSumsAgree(t, wi, in, half, recycled.CombinationMap(), fresh.CombinationMap(), outR, outF)
						continue
					}
					encR, err := recycled.EncodeCombinationMap()
					if err != nil {
						t.Fatal(err)
					}
					encF, err := fresh.EncodeCombinationMap()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(encR, encF) {
						t.Errorf("window %d: recycled encoding differs from fresh scheduler", wi)
					}
					if !reflect.DeepEqual(outR, outF) {
						t.Errorf("window %d: recycled output differs from fresh", wi)
					}
				}
			})
		}
	}
}

// windowSumsAgree checks a recycled movingSumApp window against a fresh run
// over the same elements in: the same key set, the same count per key, and
// sums (in the map and in the output) within 2·γ_{c−1}·S_k of each other,
// where c is the key's count, S_k is Σ|x_i| over the key's window
// [k−half, k+half] ∩ [0, len(in)), and γ_n = n·u/(1−n·u) with u = 2⁻⁵³.
// Any ordering or parenthesisation of a c-term sum lies within γ_{c−1}·S_k
// of the exact sum (Higham, Accuracy and Stability of Numerical Algorithms,
// 2nd ed., SIAM 2002, §4.2), so two groupings differ by at most twice that;
// adding into a zero-initialised object is exact.
func windowSumsAgree(t *testing.T, wi int, in []float64, half int, mapR, mapF CombMap, outR, outF []float64) {
	t.Helper()
	const u = 0x1p-53
	gamma := func(n int64) float64 { return float64(n) * u / (1 - float64(n)*u) }
	if len(mapR) != len(mapF) {
		t.Errorf("window %d: recycled map holds %d keys, fresh %d", wi, len(mapR), len(mapF))
	}
	for k, objF := range mapF {
		objR, ok := mapR[k]
		if !ok {
			t.Errorf("window %d: key %d missing from recycled map", wi, k)
			continue
		}
		r, f := objR.(*winObj), objF.(*winObj)
		if r.count != f.count {
			t.Errorf("window %d: key %d: count %d vs %d", wi, k, r.count, f.count)
			continue
		}
		var s float64
		for i := max(k-half, 0); i <= min(k+half, len(in)-1); i++ {
			s += math.Abs(in[i])
		}
		bound := 2 * gamma(f.count-1) * s
		if d := math.Abs(r.sum - f.sum); d > bound {
			t.Errorf("window %d: key %d: sum %v vs %v differs by %g > %g", wi, k, r.sum, f.sum, d, bound)
		}
		if d := math.Abs(outR[k] - outF[k]); d > bound {
			t.Errorf("window %d: key %d: output %v vs %v differs by %g > %g", wi, k, outR[k], outF[k], d, bound)
		}
	}
}

// TestRecycleKeepsMapIdentity: holders of CombinationMap keep observing the
// live map across a recycle — the map is cleared in place, never replaced.
func TestRecycleKeepsMapIdentity(t *testing.T) {
	s := MustNewScheduler[int, int64](bucketApp{width: 10},
		SchedArgs{NumThreads: 1, ChunkSize: 1, NumIters: 1})
	if err := s.Run(histInput(100), nil); err != nil {
		t.Fatal(err)
	}
	held := s.CombinationMap()
	if len(held) == 0 {
		t.Fatal("run left an empty combination map")
	}
	s.RecycleCombinationMap()
	if len(held) != 0 {
		t.Fatalf("recycle left %d entries visible through a held reference", len(held))
	}
	if reflect.ValueOf(s.CombinationMap()).Pointer() != reflect.ValueOf(held).Pointer() {
		t.Fatal("recycle replaced the combination map instead of clearing it")
	}
}
