package parallel

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 16} {
		for _, n := range []int{0, 1, 5, 100, 1023} {
			hit := make([]int32, n)
			ForChunked(n, workers, func(lo, hi, _ int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hit[i], 1)
				}
			})
			for i, h := range hit {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestForChunkedRangesPartition(t *testing.T) {
	if err := quick.Check(func(nRaw, wRaw uint8) bool {
		n := int(nRaw)%500 + 1
		workers := int(wRaw)%8 + 1
		covered := make([]int32, n)
		ForChunked(n, workers, func(lo, hi, w int) {
			if lo > hi || lo < 0 || hi > n {
				t.Errorf("bad range [%d,%d) for n=%d", lo, hi, n)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&covered[i], 1)
			}
		})
		for _, c := range covered {
			if c != 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestForChunkedWorkerIDsDistinct(t *testing.T) {
	const n, workers = 100, 4
	seen := make([]int32, workers)
	ForChunked(n, workers, func(lo, hi, w int) {
		atomic.AddInt32(&seen[w], 1)
	})
	for w, c := range seen {
		if c != 1 {
			t.Fatalf("worker %d invoked %d times", w, c)
		}
	}
}

func TestForPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("panic in worker not propagated")
		}
	}()
	ForChunked(100, 4, func(lo, hi, _ int) {
		if lo <= 57 && 57 < hi {
			panic("boom")
		}
	})
}

func TestDefaultWorkers(t *testing.T) {
	if DefaultWorkers(5) != 5 {
		t.Fatal("explicit worker count not respected")
	}
	if DefaultWorkers(0) < 1 {
		t.Fatal("default workers < 1")
	}
	if DefaultWorkers(-3) < 1 {
		t.Fatal("negative workers not defaulted")
	}
}
