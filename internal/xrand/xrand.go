// Package xrand provides a small, fast, deterministic pseudo-random
// number generator used by every dataset simulator and test in this
// repository. All randomness flows from an explicit seed so that every
// experiment is reproducible bit-for-bit across runs and platforms.
//
// The generator is splitmix64 (Steele, Lea, Flood; used as the seeding
// generator of xoshiro). It is not cryptographically secure and is not
// meant to be; it is statistically solid for simulation workloads and
// has a one-word state that is cheap to fork.
package xrand

import "math"

// Rand is a splitmix64 pseudo-random number generator. The zero value
// is a valid generator seeded with 0; prefer New for clarity.
type Rand struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *Rand {
	return &Rand{state: seed}
}

// Fork derives an independent generator from r. The derived stream is
// decorrelated from r's future output because it advances r once and
// then scrambles the drawn value into a fresh state.
func (r *Rand) Fork() *Rand {
	return &Rand{state: r.Uint64() ^ 0x9e3779b97f4a7c15}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniformly distributed int in [0, n). It panics if
// n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	// Lemire's nearly-divisionless bounded generation would be faster,
	// but modulo bias at our n (< 2^40) is far below 2^-20 and the
	// simulators only need statistical plausibility.
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a uniformly random permutation of [0, n) as a slice.
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(p)
	return p
}

// Shuffle permutes p in place using the Fisher-Yates algorithm.
func (r *Rand) Shuffle(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// NormFloat64 returns a normally distributed float64 with mean 0 and
// standard deviation 1, generated with the Box-Muller transform.
func (r *Rand) NormFloat64() float64 {
	// Box-Muller; u1 in (0,1] to keep the log finite.
	u1 := 1 - r.Float64()
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Zipf returns a value in [0, n) drawn from a truncated Zipf-like
// distribution with exponent s (s > 0): P(k) proportional to 1/(k+1)^s.
// It uses inverse-CDF sampling over a precomputed table when n is
// small, or rejection sampling otherwise. For the graph simulators a
// simple rejection loop is sufficient.
func (r *Rand) Zipf(n int, s float64) int {
	if n <= 0 {
		panic("xrand: Zipf called with n <= 0")
	}
	// Rejection sampling against the continuous envelope x^-s.
	for {
		x := math.Pow(1-r.Float64(), -1/(s-1+1e-12)) // heavy-tailed draw >= 1
		k := int(x) - 1
		if k < n {
			return k
		}
	}
}
