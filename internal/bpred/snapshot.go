package bpred

import (
	"fmt"

	"loosesim/internal/snap"
)

// counters2 encodes a 2-bit-counter table one byte per entry.
func counters2(w *snap.Writer, t []counter2) {
	for _, c := range t {
		w.U8(uint8(c))
	}
}

// restoreCounters2 decodes into an existing table, rejecting values the
// saturating arithmetic can never produce.
func restoreCounters2(r *snap.Reader, t []counter2) {
	for i := range t {
		v := r.U8()
		if v > 3 {
			r.Failf("2-bit counter value %d", v)
			return
		}
		t[i] = counter2(v)
	}
}

// Snapshot encodes the bimodal predictor's counter table.
func (b *Bimodal) Snapshot(w *snap.Writer) { counters2(w, b.table) }

// Restore overwrites the counter table; b must have the snapshot's size.
func (b *Bimodal) Restore(r *snap.Reader) { restoreCounters2(r, b.table) }

// Snapshot encodes the gshare predictor's counter table and global
// history register.
func (g *GShare) Snapshot(w *snap.Writer) {
	counters2(w, g.table)
	w.U64(g.history)
}

// Restore overwrites the mutable state; g must have the snapshot's
// geometry.
func (g *GShare) Restore(r *snap.Reader) {
	restoreCounters2(r, g.table)
	g.history = r.U64()
	if g.history&^((1<<g.histLen)-1) != 0 {
		r.Failf("gshare history %#x exceeds %d bits", g.history, g.histLen)
	}
}

// Snapshot encodes the tournament predictor's histories and all three
// counter tables.
func (t *Tournament) Snapshot(w *snap.Writer) {
	for _, h := range t.localHist {
		w.U16(h)
	}
	counters2(w, t.localPred)
	counters2(w, t.globalPred)
	counters2(w, t.choice)
	w.U64(t.history)
}

// Restore overwrites the mutable state; t must have the snapshot's
// geometry.
func (t *Tournament) Restore(r *snap.Reader) {
	lhMask := uint16((1 << t.lhBits) - 1)
	for i := range t.localHist {
		h := r.U16()
		if h&^lhMask != 0 {
			r.Failf("tournament local history %#x exceeds %d bits", h, t.lhBits)
			return
		}
		t.localHist[i] = h
	}
	restoreCounters2(r, t.localPred)
	restoreCounters2(r, t.globalPred)
	restoreCounters2(r, t.choice)
	t.history = r.U64()
	if t.history&^((1<<t.histBits)-1) != 0 {
		r.Failf("tournament history %#x exceeds %d bits", t.history, t.histBits)
	}
}

// Snapshot encodes the perceptron predictor's weight matrix and history.
func (p *Perceptron) Snapshot(w *snap.Writer) {
	for _, row := range p.weights {
		for _, wt := range row {
			w.U16(uint16(wt))
		}
	}
	for _, h := range p.history {
		w.U8(uint8(int8(h)))
	}
}

// Restore overwrites the mutable state; p must have the snapshot's
// geometry. Weights beyond the 8-bit clamp and history values other than
// ±1 or 0 are corrupt.
func (p *Perceptron) Restore(r *snap.Reader) {
	for _, row := range p.weights {
		for i := range row {
			wt := int16(r.U16())
			if wt < -128 || wt > 127 {
				r.Failf("perceptron weight %d outside clamp", wt)
				return
			}
			row[i] = wt
		}
	}
	for i := range p.history {
		h := int8(r.U8())
		if h != -1 && h != 0 && h != 1 {
			r.Failf("perceptron history value %d", h)
			return
		}
		p.history[i] = h
	}
}

// Snapshot encodes the static predictor's (single, configured) bit — so
// the type switch below stays exhaustive and the payload self-checks.
func (s *Static) Snapshot(w *snap.Writer) { w.Bool(s.Taken) }

// Restore checks the direction matches the configured one.
func (s *Static) Restore(r *snap.Reader) {
	if taken := r.Bool(); r.Err() == nil && taken != s.Taken {
		r.Failf("static predictor direction %v, configured %v", taken, s.Taken)
	}
}

// SnapshotPredictor dispatches over the concrete predictor types. The
// machine records the predictor kind in its config, so the restore side
// constructs the right type before calling RestorePredictor.
func SnapshotPredictor(w *snap.Writer, p Predictor) {
	switch v := p.(type) {
	case *Bimodal:
		v.Snapshot(w)
	case *GShare:
		v.Snapshot(w)
	case *Tournament:
		v.Snapshot(w)
	case *Perceptron:
		v.Snapshot(w)
	case *Static:
		v.Snapshot(w)
	default:
		panic(fmt.Sprintf("bpred: no snapshot support for %T", p))
	}
}

// RestorePredictor is SnapshotPredictor's decode-side twin.
func RestorePredictor(r *snap.Reader, p Predictor) {
	switch v := p.(type) {
	case *Bimodal:
		v.Restore(r)
	case *GShare:
		v.Restore(r)
	case *Tournament:
		v.Restore(r)
	case *Perceptron:
		v.Restore(r)
	case *Static:
		v.Restore(r)
	default:
		panic(fmt.Sprintf("bpred: no restore support for %T", p))
	}
}

// Snapshot encodes the BTB's entries as three length-prefixed columns —
// tags, targets, valid bits — followed by its statistics.
func (b *BTB) Snapshot(w *snap.Writer) {
	w.Len(len(b.entries))
	for _, e := range b.entries {
		w.U64(e.tag)
	}
	w.Len(len(b.entries))
	for _, e := range b.entries {
		w.U64(e.target)
	}
	w.Len(len(b.entries))
	for _, e := range b.entries {
		w.Bool(e.valid)
	}
	w.U64(b.hits)
	w.U64(b.misses)
}

// Restore overwrites the mutable state; b must have the snapshot's size.
func (b *BTB) Restore(r *snap.Reader) {
	n := len(b.entries)
	tags := r.U64s(n)
	targets := r.U64s(n)
	valid := r.Bools(n)
	if len(tags) != n || len(targets) != n || len(valid) != n {
		r.Failf("btb: got %d/%d/%d entries, want %d", len(tags), len(targets), len(valid), n)
		return
	}
	for i := range b.entries {
		b.entries[i] = btbEntry{tag: tags[i], target: targets[i], valid: valid[i]}
	}
	b.hits = r.U64()
	b.misses = r.U64()
}

// Snapshot encodes the store-wait predictor's bits, clear schedule, and
// statistics.
func (s *StoreWait) Snapshot(w *snap.Writer) {
	w.Bools(s.bits)
	w.I64(s.nextClr)
	w.U64(s.trains)
	w.U64(s.clears)
}

// Restore overwrites the mutable state; s must have the snapshot's size.
func (s *StoreWait) Restore(r *snap.Reader) {
	bits := r.Bools(len(s.bits))
	if len(bits) != len(s.bits) {
		r.Failf("storewait: %d bits, want %d", len(bits), len(s.bits))
		return
	}
	copy(s.bits, bits)
	s.nextClr = r.I64()
	s.trains = r.U64()
	s.clears = r.U64()
}
