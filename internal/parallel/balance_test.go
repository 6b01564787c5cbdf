package parallel

import (
	"math/rand"
	"sync/atomic"
	"testing"
)

// checkPartition asserts that ranges are contiguous, disjoint, in
// order, and exactly cover [0, n).
func checkPartition(t *testing.T, ranges []Range, n int, ctx string) {
	t.Helper()
	if n == 0 {
		if len(ranges) != 0 {
			t.Fatalf("%s: %d ranges for empty input", ctx, len(ranges))
		}
		return
	}
	lo := 0
	for i, r := range ranges {
		if r.Lo != lo || r.Hi < r.Lo || r.Hi > n {
			t.Fatalf("%s: range %d = [%d,%d) breaks coverage at %d (n=%d)", ctx, i, r.Lo, r.Hi, lo, n)
		}
		lo = r.Hi
	}
	if lo != n {
		t.Fatalf("%s: ranges end at %d, want %d", ctx, lo, n)
	}
}

// TestDeterminismBalancedRangesCover exercises the partitioner on
// adversarial weight distributions: the ranges must exactly cover
// [0, n) with no overlap regardless of how skewed the weights are.
func TestDeterminismBalancedRangesCover(t *testing.T) {
	weights := map[string]func(n int) func(i int) int64{
		"all-zero": func(n int) func(i int) int64 {
			return func(i int) int64 { return 0 }
		},
		"uniform": func(n int) func(i int) int64 {
			return func(i int) int64 { return 7 }
		},
		"single-heavy-first": func(n int) func(i int) int64 {
			return func(i int) int64 {
				if i == 0 {
					return 1 << 40
				}
				return 1
			}
		},
		"single-heavy-last": func(n int) func(i int) int64 {
			return func(i int) int64 {
				if i == n-1 {
					return 1 << 40
				}
				return 1
			}
		},
		"power-law-sorted": func(n int) func(i int) int64 {
			return func(i int) int64 { return int64(n-i) * int64(n-i) }
		},
		"negative-clamped": func(n int) func(i int) int64 {
			return func(i int) int64 { return int64(i%3) - 1 }
		},
	}
	for name, mk := range weights {
		for _, n := range []int{0, 1, 2, 5, 17, 100, 1023} {
			for _, workers := range []int{1, 2, 3, 7, 16, 200} {
				ranges := BalancedRanges(n, workers, mk(n))
				ctx := name
				checkPartition(t, ranges, n, ctx)
				if n > 0 && len(ranges) != clampWorkers(workers, n) {
					t.Fatalf("%s: n=%d workers=%d: got %d ranges", ctx, n, workers, len(ranges))
				}
				for i, r := range ranges {
					if r.Len() == 0 {
						t.Fatalf("%s: n=%d workers=%d: empty range %d", ctx, n, workers, i)
					}
				}
			}
		}
	}
}

func TestDeterminismBalancedRangesRepeatable(t *testing.T) {
	w := make([]int64, 997)
	r := rand.New(rand.NewSource(3))
	for i := range w {
		w[i] = r.Int63n(1000)
	}
	weight := func(i int) int64 { return w[i] }
	a := BalancedRanges(len(w), 8, weight)
	b := BalancedRanges(len(w), 8, weight)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("partition not deterministic at range %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestBalancedRangesEvenWeight(t *testing.T) {
	// Power-law-ish weights: the heaviest range's weight must not exceed
	// the ideal share by more than the largest single weight.
	const n, workers = 1000, 8
	w := make([]int64, n)
	r := rand.New(rand.NewSource(11))
	var total, maxw int64
	for i := range w {
		w[i] = 1 + int64(float64(1000)/float64(1+r.Intn(100)))
		total += w[i]
		if w[i] > maxw {
			maxw = w[i]
		}
	}
	ranges := BalancedRanges(n, workers, func(i int) int64 { return w[i] })
	ideal := total / workers
	for _, rg := range ranges {
		var s int64
		for i := rg.Lo; i < rg.Hi; i++ {
			s += w[i]
		}
		if s > ideal+maxw {
			t.Fatalf("range [%d,%d) weight %d exceeds ideal %d + max %d", rg.Lo, rg.Hi, s, ideal, maxw)
		}
	}
}

func TestBalancedRangesSingleWorkerIsWholeRange(t *testing.T) {
	ranges := BalancedRanges(42, 1, func(i int) int64 { return int64(i) })
	if len(ranges) != 1 || ranges[0] != (Range{0, 42}) {
		t.Fatalf("workers=1: got %v, want [{0 42}]", ranges)
	}
}

func TestStaticRangesMatchForChunked(t *testing.T) {
	for _, n := range []int{1, 5, 100, 1023} {
		for _, workers := range []int{1, 2, 7, 16} {
			ranges := StaticRanges(n, workers)
			checkPartition(t, ranges, n, "static")
			fromChunked := make([]Range, len(ranges))
			ForChunked(n, workers, func(lo, hi, w int) {
				fromChunked[w] = Range{lo, hi}
			})
			for w := range ranges {
				if ranges[w] != fromChunked[w] {
					t.Fatalf("n=%d workers=%d: worker %d static range %v != ForChunked %v",
						n, workers, w, ranges[w], fromChunked[w])
				}
			}
		}
	}
}

func TestForRangesCoversAndWorkerIDs(t *testing.T) {
	const n = 500
	ranges := BalancedRanges(n, 4, func(i int) int64 { return int64(i * i) })
	hit := make([]int32, n)
	owner := make([]int32, n)
	ForRanges(ranges, func(lo, hi, w int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hit[i], 1)
			atomic.StoreInt32(&owner[i], int32(w))
		}
	})
	for i, h := range hit {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
	for w, r := range ranges {
		for i := r.Lo; i < r.Hi; i++ {
			if owner[i] != int32(w) {
				t.Fatalf("index %d owned by worker %d, want %d", i, owner[i], w)
			}
		}
	}
}

func TestForRangesPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("panic in range worker not propagated")
		}
	}()
	ForRanges(StaticRanges(100, 4), func(lo, hi, w int) {
		if lo > 0 {
			panic("boom")
		}
	})
}

func TestClampWorkers(t *testing.T) {
	cases := []struct{ workers, n, want int }{
		{8, 3, 3},   // more workers than iterations: clamp
		{8, 100, 8}, // enough work for everyone
		{1, 0, 1},   // never below one
		{0, 5, 1},
		{4, 4, 4},
	}
	for _, c := range cases {
		if got := clampWorkers(c.workers, c.n); got != c.want {
			t.Fatalf("clampWorkers(%d, %d) = %d, want %d", c.workers, c.n, got, c.want)
		}
	}
}
