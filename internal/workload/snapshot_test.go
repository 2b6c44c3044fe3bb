package workload

import (
	"bytes"
	"testing"

	"loosesim/internal/snap"
)

// TestGeneratorSnapshotRoundTrip snapshots a correct-path and a
// wrong-path generator mid-stream, restores them into fresh generators
// built from a different seed, and checks the restored pair continues
// the original streams exactly and re-encodes to the same bytes.
func TestGeneratorSnapshotRoundTrip(t *testing.T) {
	const next = 100_000
	for _, name := range []string{"gcc", "apsi", "swim"} {
		t.Run(name, func(t *testing.T) {
			p := profiles[name]
			gen := NewGenerator(p, 5, 1<<33)
			wp := NewGenerator(p, 5+104729, 1<<33)
			for i := 0; i < 12_345; i++ {
				gen.Next()
			}
			for i := 0; i < 777; i++ {
				wp.Next()
			}
			var w snap.Writer
			gen.Snapshot(&w)
			wp.Snapshot(&w)
			data := bytes.Clone(w.Bytes())

			gen2 := NewGenerator(p, 99, 1<<33)
			wp2 := NewGenerator(p, 98, 1<<33)
			r := snap.NewReader(data)
			gen2.Restore(r)
			wp2.Restore(r)
			if err := r.Expect(); err != nil {
				t.Fatal(err)
			}
			var again snap.Writer
			gen2.Snapshot(&again)
			wp2.Snapshot(&again)
			if !bytes.Equal(again.Bytes(), data) {
				t.Fatal("restored generators re-encode differently")
			}
			for _, pair := range [][2]*Generator{{gen, gen2}, {wp, wp2}} {
				for i := 0; i < next; i++ {
					if a, b := pair[0].Next(), pair[1].Next(); a != b {
						t.Fatalf("instruction %d after restore: %v, want %v", i, b, a)
					}
				}
			}
		})
	}
}
