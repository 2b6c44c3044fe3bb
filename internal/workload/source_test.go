package workload

import (
	"math"
	"math/rand"
	"testing"
)

// TestRingSourceMatchesMathRand pins ringSource to math/rand's own
// source, which stays the reference: every drawn value, through every
// rand.Rand method the generator uses, must be identical. The seeds cover
// math/rand's seed folding — zero, negatives, multiples of 2^31-1 and the
// int64 extremes.
func TestRingSourceMatchesMathRand(t *testing.T) {
	const draws = 1_000_000
	for _, seed := range []int64{0, 1, -1, 42, -7919, 89482311, math.MaxInt32, 2 * math.MaxInt32, math.MaxInt64, math.MinInt64} {
		ref := rand.New(rand.NewSource(seed))
		got := rand.New(newRingSource(seed))
		for i := 0; i < draws; i++ {
			var a, b uint64
			switch i % 5 {
			case 0:
				a, b = math.Float64bits(ref.Float64()), math.Float64bits(got.Float64())
			case 1:
				n := 1 + i%97
				a, b = uint64(ref.Intn(n)), uint64(got.Intn(n))
			case 2:
				a, b = ref.Uint64(), got.Uint64()
			case 3:
				a, b = uint64(ref.Int63()), uint64(got.Int63())
			default:
				n := 1<<40 + i // Int63n's path, above the Int31n range
				a, b = uint64(ref.Intn(n)), uint64(got.Intn(n))
			}
			if a != b {
				t.Fatalf("seed %d: draw %d: %#x, math/rand gives %#x", seed, i, b, a)
			}
		}
	}
}

// TestRingSourceReseed checks Seed restarts the stream from scratch, as
// math/rand's Seed does, whatever the source drew before.
func TestRingSourceReseed(t *testing.T) {
	s := newRingSource(3)
	for i := 0; i < 1000; i++ {
		s.Uint64()
	}
	s.Seed(11)
	ref := rand.NewSource(11).(rand.Source64)
	for i := 0; i < 2*rngLen; i++ {
		if a, b := ref.Uint64(), s.Uint64(); a != b {
			t.Fatalf("draw %d after reseed: %#x, math/rand gives %#x", i, b, a)
		}
	}
}
