package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestForkDecorrelates(t *testing.T) {
	r := New(1)
	f := r.Fork()
	same := 0
	for i := 0; i < 64; i++ {
		if r.Uint64() == f.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Error("fork produced colliding stream")
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(4)
	sum := 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean %v far from 0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		n := 1 + int(seed%50)
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestIntnUniformity(t *testing.T) {
	// Chi-square-ish sanity over 10 buckets.
	r := New(9)
	const n, k = 100000, 10
	counts := make([]int, k)
	for i := 0; i < n; i++ {
		counts[r.Intn(k)]++
	}
	for b, c := range counts {
		if math.Abs(float64(c)-n/k) > 0.05*n/k {
			t.Errorf("bucket %d count %d deviates >5%%", b, c)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(11)
	const n = 50000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean %v", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance %v", variance)
	}
}

func TestZipfRangeAndSkew(t *testing.T) {
	r := New(13)
	const n = 20000
	counts := make([]int, 50)
	for i := 0; i < n; i++ {
		v := r.Zipf(50, 2.0)
		if v < 0 || v >= 50 {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	if counts[0] < counts[10] {
		t.Error("Zipf head not heavier than tail")
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	r := New(14)
	p := []int{5, 6, 7, 8, 9}
	r.Shuffle(p)
	sum := 0
	for _, v := range p {
		sum += v
	}
	if sum != 35 {
		t.Error("Shuffle lost elements")
	}
}
