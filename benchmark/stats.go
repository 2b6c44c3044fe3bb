package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"sort"

	"loosesim/internal/pipeline"
)

// median of vals; 0 for none.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLatency returns the highest percentile of vals that still has
// tailBeyond(len(vals)) samples above it, and that percentile. With fewer
// than 11 samples no percentile has ten beyond it; the maximum stands in.
func tailLatency(vals []float64) (value, pct float64) {
	n := len(vals)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	k := n - 1 - tailBeyond(n)
	return s[k], 100 * float64(k+1) / float64(n)
}

// tailBeyond is how many samples lie above the reported tail percentile.
func tailBeyond(n int) int {
	if n < 11 {
		return 0
	}
	return 10
}

// digest condenses results' counters into 48 bits, a whole number a
// float64 holds exactly: any change in any counter of any result changes
// it.
func digest(ctrs []pipeline.Counters) uint64 {
	h := sha256.New()
	for _, c := range ctrs {
		b, err := json.Marshal(c)
		if err != nil {
			panic(err) // Counters holds only integers
		}
		h.Write(b)
	}
	return binary.BigEndian.Uint64(h.Sum(nil)) >> 16
}

// modelMetrics reports the simulated outcome. A change that only speeds
// up the simulator leaves every one of these identical.
func modelMetrics(out *outcome, rep *report) {
	c := out.model
	rep.set("sim.ipc", c.IPC(), "inst/cycle")
	rep.set("sim.cycles", float64(c.Cycles), "cycles")
	rep.set("sim.mispredict_rate", c.MispredictRate(), "ratio")
	rep.set("sim.l1_miss_rate", c.L1MissRate(), "ratio")
	rep.set("sim.l2_miss_rate", c.L2MissRate(), "ratio")
	rep.set("sim.operand_miss_rate", c.OperandMissRate(), "ratio")
	rep.set("sim.useful_issue_ratio", ratio(c.ExecutedUseful, c.IssuedTotal), "ratio")
	rep.set("sim.squashed_pki", 1000*ratio(c.SquashedTotal, c.Retired), "per_kinst")
	rep.set("sim.counters_digest", float64(out.digest), "hash48")
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
