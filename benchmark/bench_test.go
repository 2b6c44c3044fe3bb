package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"loosesim/internal/workload"
)

func TestTailLatency(t *testing.T) {
	var vals []float64
	for i := 100; i >= 1; i-- {
		vals = append(vals, float64(i))
	}
	if v, pct := tailLatency(vals); v != 90 || pct != 90 {
		t.Errorf("100 samples: tail %v at p%v, want 90 at p90 (ten samples beyond)", v, pct)
	}
	if v, pct := tailLatency([]float64{3, 1, 2}); v != 3 || pct != 100 {
		t.Errorf("3 samples: tail %v at p%v, want the maximum", v, pct)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestStageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"loosesim/internal/pipeline.(*Machine).issue":         "stage.issue",
		"loosesim/internal/iq.(*Queue).Retained":              "stage.iq_retained",
		"loosesim/internal/workload.(*Generator).geometric":   "stage.generator",
		"loosesim/internal/pipeline.(*Machine).renamedLater":  "",
		"runtime.gcBgMarkWorker":                              "stage.gc",
		"loosesim/internal/pipeline.(*eventRing).take":        "stage.events",
		"loosesim/internal/bpred.(*Tournament).Update":        "stage.bpred",
		"loosesim/internal/mem.(*Hierarchy).Load":             "stage.mem",
		"loosesim/internal/pipeline.(*Machine).processEvents": "stage.events",
	} {
		if got := stageOf(fn); got != want {
			t.Errorf("stageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestFoldStages folds a real CPU profile of the generator: nearly all of
// it must land in stage.generator, and the shares must sum to one.
func TestFoldStages(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	wl, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	g := workload.NewGenerator(wl.Threads[0], 1, 0)
	for end := time.Now().Add(500 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 10_000; i++ {
			g.Next()
		}
	}
	pprof.StopCPUProfile()
	shares, err := foldStages(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, n := range stageNames {
		sum += shares[n]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	if shares["stage.generator"] < 0.5 {
		t.Errorf("generator share %v of a generator loop; shares %v", shares["stage.generator"], shares)
	}
}
