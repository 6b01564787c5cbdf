package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs of 100", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 10; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 10 {
		t.Fatalf("seed 0 produced repeats: %d distinct of 10", len(seen))
	}
}

// TestAt pins the counter-based streams the MCMC passes draw from: a
// site always yields the same stream, neighbouring sites (in every
// coordinate) yield unrelated ones, and the first outputs are fixed, so
// a change to the hash would show here before it re-keys every chain.
func TestAt(t *testing.T) {
	a, b := At(7, 3, 11), At(7, 3, 11)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("site (7, 3, 11) gave two streams, diverging at draw %d", i)
		}
	}
	sites := [][3]uint64{{7, 3, 11}, {8, 3, 11}, {7, 4, 11}, {7, 3, 12}, {7, 11, 3}, {0, 0, 0}, {0, 0, 1}, {0, 1, 0}}
	seen := map[uint64][3]uint64{}
	for _, site := range sites {
		r := At(site[0], site[1], site[2])
		for i := 0; i < 100; i++ {
			x := r.Uint64()
			if prev, ok := seen[x]; ok {
				t.Fatalf("sites %v and %v share output %#x", prev, site, x)
			}
			seen[x] = site
		}
	}
	for _, c := range []struct {
		key, a, b uint64
		want      [2]uint64
	}{
		{0, 0, 0, [2]uint64{0x8a21cd34a214a917, 0x9c507e12243e64d0}},
		{7, 3, 11, [2]uint64{0xf0694ecb430678bc, 0xad5d2003f28ed375}},
		{1 << 63, 1<<32 - 1, 12345, [2]uint64{0x02b6521420016de0, 0x8ae68595f3aad94a}},
	} {
		r := At(c.key, c.a, c.b)
		if got := [2]uint64{r.Uint64(), r.Uint64()}; got != c.want {
			t.Errorf("At(%d, %d, %d) = %#x, want %#x", c.key, c.a, c.b, got, c.want)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	if err := quick.Check(func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniform(t *testing.T) {
	r := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	// Chi-squared test with 9 dof; 27.9 is the 0.1% critical value.
	expected := float64(draws) / n
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 27.9 {
		t.Fatalf("Intn not uniform: chi2 = %.2f", chi2)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(9)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean %.4f, want ~0.5", mean)
	}
}

func TestPoissonMoments(t *testing.T) {
	r := New(13)
	for _, lambda := range []float64{0.5, 3, 12, 50, 200} {
		const n = 50000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			v := float64(r.Poisson(lambda))
			sum += v
			sumSq += v * v
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		tol := 5 * math.Sqrt(lambda/n) * 3 // generous 3-sigma-ish band
		if math.Abs(mean-lambda) > math.Max(tol, 0.05*lambda) {
			t.Errorf("Poisson(%g) mean %.3f", lambda, mean)
		}
		if math.Abs(variance-lambda) > 0.15*lambda+0.5 {
			t.Errorf("Poisson(%g) variance %.3f", lambda, variance)
		}
	}
}

func TestPoissonZeroLambda(t *testing.T) {
	r := New(1)
	if v := r.Poisson(0); v != 0 {
		t.Fatalf("Poisson(0) = %d, want 0", v)
	}
	if v := r.Poisson(-3); v != 0 {
		t.Fatalf("Poisson(-3) = %d, want 0", v)
	}
}

func TestBinomialMoments(t *testing.T) {
	r := New(17)
	for _, tc := range []struct {
		n int
		p float64
	}{{10, 0.3}, {100, 0.5}, {1000, 0.01}, {500, 0.9}} {
		const draws = 20000
		var sum float64
		for i := 0; i < draws; i++ {
			v := r.Binomial(tc.n, tc.p)
			if v < 0 || v > tc.n {
				t.Fatalf("Binomial(%d,%g) = %d out of range", tc.n, tc.p, v)
			}
			sum += float64(v)
		}
		mean := sum / draws
		want := float64(tc.n) * tc.p
		sigma := math.Sqrt(float64(tc.n)*tc.p*(1-tc.p)) / math.Sqrt(draws)
		if math.Abs(mean-want) > 6*sigma+0.01 {
			t.Errorf("Binomial(%d,%g) mean %.3f, want %.3f", tc.n, tc.p, mean, want)
		}
	}
}

func TestBinomialEdgeCases(t *testing.T) {
	r := New(19)
	if v := r.Binomial(10, 0); v != 0 {
		t.Fatalf("Binomial(10,0) = %d", v)
	}
	if v := r.Binomial(10, 1); v != 10 {
		t.Fatalf("Binomial(10,1) = %d", v)
	}
	if v := r.Binomial(0, 0.5); v != 0 {
		t.Fatalf("Binomial(0,0.5) = %d", v)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(23)
	if err := quick.Check(func(sz uint8) bool {
		n := int(sz%64) + 1
		p := r.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExpPositiveMean(t *testing.T) {
	r := New(29)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Exp()
		if v < 0 {
			t.Fatalf("Exp() negative: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("Exp mean %.4f, want ~1", mean)
	}
}

func TestShuffleIntsPreservesMultiset(t *testing.T) {
	r := New(41)
	s := []int{1, 1, 2, 3, 5, 8, 13}
	sum := 0
	for _, v := range s {
		sum += v
	}
	r.ShuffleInts(s)
	after := 0
	for _, v := range s {
		after += v
	}
	if sum != after {
		t.Fatalf("shuffle changed contents: sum %d -> %d", sum, after)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(1000)
	}
}

func BenchmarkPoissonLarge(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Poisson(500)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	// The property checkpoint/resume depends on: after any number of
	// draws, marshal → unmarshal yields a generator whose next 1000
	// draws are bit-identical to the original's.
	for _, warmup := range []int{0, 1, 7, 997} {
		r := New(42)
		for i := 0; i < warmup; i++ {
			r.Uint64()
		}
		buf, err := r.MarshalBinary()
		if err != nil {
			t.Fatalf("warmup %d: marshal: %v", warmup, err)
		}
		if len(buf) != MarshaledSize {
			t.Fatalf("warmup %d: marshaled %d bytes, want %d", warmup, len(buf), MarshaledSize)
		}
		restored := &RNG{}
		if err := restored.UnmarshalBinary(buf); err != nil {
			t.Fatalf("warmup %d: unmarshal: %v", warmup, err)
		}
		for i := 0; i < 1000; i++ {
			if a, b := r.Uint64(), restored.Uint64(); a != b {
				t.Fatalf("warmup %d: streams diverged at draw %d: %x != %x", warmup, i, a, b)
			}
		}
	}
}

func TestMarshalRoundTripMixedDraws(t *testing.T) {
	// Round-trip mid-stream and continue with the full draw mix used by
	// the engines (floats, bounded ints, shuffles), not just Uint64.
	r := New(7)
	for i := 0; i < 100; i++ {
		r.Float64()
		r.Intn(17)
	}
	buf, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := &RNG{}
	if err := restored.UnmarshalBinary(buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if a, b := r.Float64(), restored.Float64(); a != b {
			t.Fatalf("Float64 diverged at %d: %v != %v", i, a, b)
		}
		if a, b := r.Intn(1000), restored.Intn(1000); a != b {
			t.Fatalf("Intn diverged at %d: %d != %d", i, a, b)
		}
	}
	pa, pb := r.Perm(50), restored.Perm(50)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("Perm diverged at %d", i)
		}
	}
}

func TestUnmarshalRejectsBadState(t *testing.T) {
	r := &RNG{}
	for _, bad := range [][]byte{
		nil,
		{},
		make([]byte, MarshaledSize-1),
		make([]byte, MarshaledSize+1),
		make([]byte, MarshaledSize), // all-zero: the xoshiro fixed point
	} {
		if err := r.UnmarshalBinary(bad); err != ErrBadState {
			t.Errorf("UnmarshalBinary(%d bytes) = %v, want ErrBadState", len(bad), err)
		}
	}
	// A rejected unmarshal must not clobber an existing state.
	live := New(3)
	want := *live
	if err := live.UnmarshalBinary(make([]byte, MarshaledSize)); err == nil {
		t.Fatal("all-zero state accepted")
	}
	if *live != want {
		t.Fatal("failed unmarshal mutated the receiver")
	}
}

// TestInt63nMatchesIntn: for bounds that fit in int, Int63n must consume
// the stream identically to Intn and return the same values — the
// property that lets proposal-path call sites switch to 64-bit bounds
// without perturbing fixed-seed results.
func TestInt63nMatchesIntn(t *testing.T) {
	for _, n := range []int64{1, 2, 3, 7, 100, 1 << 20, 1<<31 - 1} {
		a, b := New(42), New(42)
		for i := 0; i < 200; i++ {
			x, y := a.Intn(int(n)), b.Int63n(n)
			if int64(x) != y {
				t.Fatalf("n=%d draw %d: Intn=%d Int63n=%d", n, i, x, y)
			}
		}
	}
}

func TestInt63nLargeBounds(t *testing.T) {
	r := New(7)
	n := int64(1)<<40 + 12345 // exceeds any 32-bit int bound
	seenHigh := false
	for i := 0; i < 2000; i++ {
		v := r.Int63n(n)
		if v < 0 || v >= n {
			t.Fatalf("Int63n(%d) = %d out of range", n, v)
		}
		if v > 1<<31 {
			seenHigh = true
		}
	}
	if !seenHigh {
		t.Fatal("Int63n never drew above 2^31 over a 2^40 bound")
	}
}

func TestInt63nPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Int63n(0) did not panic")
		}
	}()
	New(1).Int63n(0)
}
