package workload

import (
	"loosesim/internal/isa"
	"loosesim/internal/snap"
)

// Snapshot encodes the generator's mutable state: the random source's
// ring, the destination ring with its hot-value and chain bookkeeping,
// the address walkers, recent stores, branch-pattern counters and the
// stream position. The profile and memory base are configuration:
// Restore expects a generator built by NewGenerator from the same ones.
func (g *Generator) Snapshot(w *snap.Writer) {
	for _, v := range g.src.vec {
		w.U64(v)
	}
	for _, d := range g.ring {
		w.U16(uint16(d))
	}
	for _, d := range []isa.Reg{g.nextDest, g.lastDest, g.hotVal, g.chainReg} {
		w.U16(uint16(d))
	}
	for _, v := range []int{g.src.pos, g.ringLen, g.head, g.recentStoreLen, g.recentStoreCur, g.hotValAge, g.chainAge} {
		w.Int(v)
	}
	for _, v := range g.streams {
		w.U64(v)
	}
	for _, v := range g.recentStores {
		w.U64(v)
	}
	for _, c := range g.patternCount {
		w.U32(c)
	}
	for _, v := range []uint64{g.writes, g.pageWalk, g.pc, g.generated} {
		w.U64(v)
	}
}

// Restore overwrites the mutable state with state encoded by Snapshot.
// Every index, register and address-walker offset is range-checked, so a
// corrupt payload latches snap.ErrCorrupt on r instead of sending Next
// out of range; on error the generator must be discarded.
func (g *Generator) Restore(r *snap.Reader) {
	reg := func(optional bool) isa.Reg {
		d := isa.Reg(r.U16())
		if !d.Valid() && !(optional && d == isa.RegInvalid) {
			r.Failf("generator: register %d", d)
		}
		return d
	}
	index := func(what string, n int) int {
		v := r.Int()
		if v < 0 || v >= n {
			r.Failf("generator: %s %d of %d", what, v, n)
		}
		return v
	}
	offset := func(what string, span uint64) uint64 {
		v := r.U64()
		if v != 0 && v >= span {
			r.Failf("generator: %s offset %d past %d", what, v, span)
		}
		return v
	}
	for i := range g.src.vec {
		g.src.vec[i] = r.U64()
	}
	for i := range g.ring {
		g.ring[i] = reg(false)
	}
	g.nextDest, g.lastDest, g.hotVal, g.chainReg = reg(false), reg(true), reg(true), reg(true)
	g.src.pos = index("rng index", rngLen)
	g.ringLen = index("ring length", ringSize+1)
	g.head = index("ring head", ringSize)
	g.recentStoreLen = index("recent-store count", len(g.recentStores)+1)
	g.recentStoreCur = index("recent-store cursor", len(g.recentStores))
	g.hotValAge, g.chainAge = r.Int(), r.Int()
	for i := range g.streams {
		g.streams[i] = offset("stream", g.prof.StreamBytes)
	}
	for i := range g.recentStores {
		g.recentStores[i] = r.U64()
	}
	for i := range g.patternCount {
		g.patternCount[i] = r.U32()
	}
	g.writes = r.U64()
	g.pageWalk = offset("page walk", g.prof.PageWalkSpan)
	g.pc, g.generated = r.U64(), r.U64()
}
