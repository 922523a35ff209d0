// Package xrand provides a small, fast, deterministic PRNG for the
// simulator and workload generators.
//
// Using an explicit generator instead of math/rand's global state keeps
// every simulation reproducible: the same seed always produces the same
// address streams and the same Random-scheduler decisions, regardless of
// what other code runs in the process.
//
// The generator is xoshiro256**, seeded through splitmix64 as its authors
// recommend.
package xrand

import "math/bits"

// Rand is a deterministic pseudo-random number generator.
// It is not safe for concurrent use; each component owns its own Rand.
type Rand struct {
	s [4]uint64
}

// splitmix64 advances x and returns the next splitmix64 output.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given seed. Distinct seeds give
// independent streams; seed 0 is valid.
func New(seed uint64) *Rand {
	var r Rand
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	return &r
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
// Lemire's multiply-shift rejection method avoids modulo bias.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n // (2^64 - n) mod n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Fork returns a new generator whose stream is independent of r's but
// deterministically derived from it, for handing to sub-components.
func (r *Rand) Fork() *Rand {
	return New(r.Uint64() ^ 0xa5a5a5a55a5a5a5a)
}
