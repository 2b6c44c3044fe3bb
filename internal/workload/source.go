package workload

import "math/rand"

// math/rand's default source is the additive lagged-Fibonacci generator
// x[k] = x[k-rngLen] + x[k-rngTap] (mod 2^64).
const (
	rngLen = 607
	rngTap = 273
)

// ringSource is math/rand's default source with its state in the open:
// the stdlib keeps its feedback register unexported, so a checkpoint
// could only record a stream position. ringSource runs the same
// recurrence over a ring of the last rngLen outputs, which Snapshot
// copies directly. Wrapped in rand.New it draws exactly the values of
// rand.New(rand.NewSource(seed)): Float64 and Intn stay the stdlib code,
// and both sources advance one step per Int63 or Uint64.
type ringSource struct {
	vec [rngLen]uint64 // vec[pos] is the oldest output, vec[pos-1] the newest
	pos int
}

// newRingSource reproduces rand.NewSource(seed). It draws that source's
// first rngLen outputs and solves the recurrence backwards for the history
// that generates them, x[j-rngLen] = x[j] - x[j-rngTap]. For j < rngTap
// the subtrahend is itself history at a later slot, so slots are filled
// from the top down.
func newRingSource(seed int64) *ringSource {
	ref := rand.NewSource(seed).(rand.Source64)
	var out [rngLen]uint64
	for i := range out {
		out[i] = ref.Uint64()
	}
	s := new(ringSource)
	for j := rngLen - 1; j >= 0; j-- {
		if j >= rngTap {
			s.vec[j] = out[j] - out[j-rngTap]
		} else {
			s.vec[j] = out[j] - s.vec[j+rngLen-rngTap]
		}
	}
	return s
}

// Seed is rand.Source's reseed; it restarts the stream as
// newRingSource(seed) would.
func (s *ringSource) Seed(seed int64) { *s = *newRingSource(seed) }

// Uint64 returns the next output and overwrites the oldest with it.
func (s *ringSource) Uint64() uint64 {
	tap := s.pos + rngLen - rngTap
	if tap >= rngLen {
		tap -= rngLen
	}
	x := s.vec[s.pos] + s.vec[tap]
	s.vec[s.pos] = x
	if s.pos++; s.pos == rngLen {
		s.pos = 0
	}
	return x
}

// Int63 returns the next output with its top bit cleared, as math/rand's
// source does.
func (s *ringSource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }
