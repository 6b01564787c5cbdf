// Package rng provides the fast, deterministic pseudo-random number
// generator used throughout the SBP implementation.
//
// Generation is xoshiro256** seeded through SplitMix64, the construction
// the xoshiro authors recommend. Besides the sequential streams of New,
// At gives counter-based streams: one short stream per draw site, keyed
// by a phase key and two coordinates (a sweep and a vertex, say). A
// parallel pass that draws vertex v's randomness from At(key, sweep, v)
// consumes the same numbers however its vertices are split across
// goroutines or processes, so its result depends on the seed alone.
//
// The zero value is not usable; construct with New or At.
package rng

import (
	"encoding/binary"
	"errors"
	"math"
)

// RNG is a xoshiro256** generator. It is NOT safe for concurrent use;
// give each goroutine its own, from New or At.
type RNG struct {
	s0, s1, s2, s3 uint64
}

// splitMix64 advances x and returns the next SplitMix64 output.
func splitMix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed. Any seed, including 0, is valid.
func New(seed uint64) *RNG {
	r := &RNG{}
	x := seed
	r.s0 = splitMix64(&x)
	r.s1 = splitMix64(&x)
	r.s2 = splitMix64(&x)
	r.s3 = splitMix64(&x)
	return r
}

// At returns the stream of draw site (a, b) under key. The three words
// are folded through SplitMix64 into one seed, which seeds the
// xoshiro256** state as New does, so neighbouring sites get unrelated
// streams. The value is returned, not a pointer, so a caller that takes
// its address for one site's draws keeps it on the stack.
func At(key, a, b uint64) RNG {
	x := key
	x = splitMix64(&x) ^ a
	x = splitMix64(&x) ^ b
	x = splitMix64(&x)
	var r RNG
	r.s0 = splitMix64(&x)
	r.s1 = splitMix64(&x)
	r.s2 = splitMix64(&x)
	r.s3 = splitMix64(&x)
	return r
}

// MarshaledSize is the length of a marshaled RNG state in bytes.
const MarshaledSize = 32

// ErrBadState is returned by UnmarshalBinary for byte slices that cannot
// be a live xoshiro256** state: wrong length, or the all-zero state (the
// one fixed point of the generator, which no seeded stream ever visits).
var ErrBadState = errors.New("rng: invalid serialized state")

// MarshalBinary serializes the generator's exact stream position as 32
// big-endian bytes. A generator restored with UnmarshalBinary produces
// the bit-identical continuation of the stream — the property the
// checkpoint/resume subsystem depends on.
func (r *RNG) MarshalBinary() ([]byte, error) {
	buf := make([]byte, MarshaledSize)
	binary.BigEndian.PutUint64(buf[0:], r.s0)
	binary.BigEndian.PutUint64(buf[8:], r.s1)
	binary.BigEndian.PutUint64(buf[16:], r.s2)
	binary.BigEndian.PutUint64(buf[24:], r.s3)
	return buf, nil
}

// UnmarshalBinary restores a stream position written by MarshalBinary.
// It rejects inputs of the wrong length and the degenerate all-zero
// state with ErrBadState instead of silently producing a stuck stream.
func (r *RNG) UnmarshalBinary(data []byte) error {
	if len(data) != MarshaledSize {
		return ErrBadState
	}
	s0 := binary.BigEndian.Uint64(data[0:])
	s1 := binary.BigEndian.Uint64(data[8:])
	s2 := binary.BigEndian.Uint64(data[16:])
	s3 := binary.BigEndian.Uint64(data[24:])
	if s0|s1|s2|s3 == 0 {
		return ErrBadState
	}
	r.s0, r.s1, r.s2, r.s3 = s0, s1, s2, s3
	return nil
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(r.boundedUint64(uint64(n)))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
//
// Use this (not Intn) when the bound is inherently 64-bit — block
// degree totals, edge-endpoint masses — so the draw neither truncates
// nor overflows on 32-bit builds. For any n representable as int the
// draw consumes the stream identically to Intn(int(n)) and returns the
// same value, so switching a call site from Intn to Int63n preserves
// fixed-seed results bit for bit.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n called with n <= 0")
	}
	return int64(r.boundedUint64(uint64(n)))
}

// boundedUint64 returns a uniform value in [0, n) using Lemire's
// multiply-shift rejection method (no modulo bias).
func (r *RNG) boundedUint64(n uint64) uint64 {
	hi, lo := mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = mul64(r.Uint64(), n)
		}
	}
	return hi
}

// mul64 computes the 128-bit product of a and b.
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += aLo * bHi
	hi = aHi*bHi + w2 + (w1 >> 32)
	lo = a * b
	return hi, lo
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Exp returns an exponentially distributed float64 with rate 1.
func (r *RNG) Exp() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Poisson returns a Poisson(lambda) variate. For small lambda it uses
// Knuth's product method; for large lambda the PTRS transformed-rejection
// method of Hörmann (1993), which is O(1).
func (r *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda < 30 {
		l := math.Exp(-lambda)
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	// PTRS (Hörmann). Valid for lambda >= 10.
	b := 0.931 + 2.53*math.Sqrt(lambda)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	logLam := math.Log(lambda)
	for {
		u := r.Float64() - 0.5
		v := r.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + lambda + 0.43)
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		lg, _ := math.Lgamma(k + 1)
		if math.Log(v*invAlpha/(a/(us*us)+b)) <= k*logLam-lambda-lg {
			return int(k)
		}
	}
}

// Binomial returns a Binomial(n, p) variate via inversion for small n·p
// and a normal approximation-free BTPE-lite waiting-time method otherwise.
func (r *RNG) Binomial(n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if p > 0.5 {
		return n - r.Binomial(n, 1-p)
	}
	if float64(n)*p < 30 {
		// Waiting-time (geometric) method: O(n·p) expected.
		q := math.Log(1 - p)
		count, x := 0, 0
		for {
			e := r.Exp()
			x += int(e/(-q)) + 1
			if x > n {
				return count
			}
			count++
		}
	}
	// Sum of Poisson-approximation corrections is overkill here; fall back
	// to a simple split: Binomial(n,p) = Binomial(k,p) + Binomial(n-k,p).
	half := n / 2
	return r.Binomial(half, p) + r.Binomial(n-half, p)
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles s in place (Fisher-Yates).
func (r *RNG) ShuffleInts(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}
