package main

import (
	"context"
	"fmt"
	"time"

	"loosesim"
	"loosesim/internal/pipeline"
	"loosesim/internal/sample"
)

// kernel-long is gcc on the base machine with a 3-cycle register file,
// measured over 2M instructions after the default 150k warmup, so cold
// start is a few percent of a run. Nearly all host time is the cycle
// kernel; snapshots, warming, serve and dispatch are not touched.
const (
	kernelMeasure = 2_000_000
	kernelSlice   = 10_000
)

func kernelPoint(seed int64) (pipeline.Config, error) {
	cfg, err := loosesim.BaseMachine("gcc", 3)
	cfg.Seed = seed
	cfg.MeasureInstructions = kernelMeasure
	return cfg, err
}

// sampled-point is Figure 8's worked cell, swim on the DRA machine with a
// 5-cycle register file, at the default 150k warmup and 300k measured
// instructions: one sampled estimate next to one full run.
func sampledPoint(seed int64) (pipeline.Config, error) {
	cfg, err := loosesim.DRAMachine("swim", 5)
	cfg.Seed = seed
	return cfg, err
}

// fullRun is one full-fidelity simulation, timed in parts.
type fullRun struct {
	res       *pipeline.Result
	setup     float64   // seconds: pipeline.New plus the warmup instructions
	measure   float64   // seconds spent on the measured instructions
	allocs    float64   // heap allocations per 1k measured instructions
	sliceSecs []float64 // seconds per slice of the measured instructions
}

// runFull builds cfg's machine, runs its warmup, then runs the measured
// instructions in slices of the given length. The allocation figure is
// the slope between two run lengths, the end of warmup and the end of the
// run, so construction and cold start do not enter it.
func runFull(e *env, cfg pipeline.Config, slice uint64, parent int) (*fullRun, error) {
	ctx := context.Background()
	t0 := time.Now()
	sp := e.sp.start("pipeline.New", parent)
	m, err := pipeline.New(cfg)
	e.sp.end(sp)
	if err != nil {
		return nil, err
	}
	sp = e.sp.start("pipeline.Machine.RunUntilRetired", parent)
	err = m.RunUntilRetired(ctx, cfg.WarmupInstructions)
	e.sp.end(sp)
	if err != nil {
		return nil, err
	}
	r := &fullRun{setup: time.Since(t0).Seconds()}
	a0 := mallocs()
	tm := time.Now()
	end := cfg.WarmupInstructions + cfg.MeasureInstructions
	for target := cfg.WarmupInstructions + slice; ; target += slice {
		if target > end {
			target = end
		}
		ts := time.Now()
		sp = e.sp.start("pipeline.Machine.RunUntilRetired", parent)
		err = m.RunUntilRetired(ctx, target)
		e.sp.end(sp)
		if err != nil {
			return nil, err
		}
		r.sliceSecs = append(r.sliceSecs, time.Since(ts).Seconds())
		if target == end {
			break
		}
	}
	// The window closes a few cycles past the target when warmup
	// overshot its boundary; RunContext finishes it and builds the Result.
	sp = e.sp.start("pipeline.Machine.RunContext", parent)
	r.res, err = m.RunContext(ctx)
	e.sp.end(sp)
	if err != nil {
		return nil, err
	}
	r.measure = time.Since(tm).Seconds()
	r.allocs = float64(mallocs()-a0) / (float64(r.res.Counters.Retired) / 1000)
	return r, nil
}

// checkFull holds for every full run: the measured window retired what
// was asked (retirement is up to RetireWidth a cycle, so it may end a few
// past), the cycle stack accounts for every cycle, and the counters equal
// those of the first run with the same seed.
func checkFull(cfg pipeline.Config, r *fullRun, first *pipeline.Counters) error {
	c := r.res.Counters
	if c.Retired < cfg.MeasureInstructions || c.Retired >= cfg.MeasureInstructions+uint64(cfg.RetireWidth) {
		return fmt.Errorf("retired %d, asked for %d", c.Retired, cfg.MeasureInstructions)
	}
	if got := r.res.Cycles.Total(); got != c.Cycles {
		return fmt.Errorf("cycle stack totals %d, counters say %d cycles", got, c.Cycles)
	}
	if c != *first {
		return fmt.Errorf("counters differ from the first run with the same seed")
	}
	return nil
}

// addFull folds one full run into the outcome.
func (out *outcome) addFull(r *fullRun) {
	c := r.res.Counters
	out.setup = append(out.setup, r.setup)
	out.kips = append(out.kips, float64(c.Retired)/1000/r.measure)
	out.allocs = append(out.allocs, r.allocs)
	out.simSeconds += r.measure
	out.simCycles += float64(c.Cycles)
	out.simIssued += float64(c.IssuedTotal)
	if out.digest == 0 {
		out.model, out.pointCounters = c, c
		out.digest = digest([]pipeline.Counters{c})
	}
}

func runKernelLong(e *env) (*outcome, error) {
	cfg, err := kernelPoint(e.seed)
	if err != nil {
		return nil, err
	}
	out := &outcome{opName: fmt.Sprintf("%dk-instruction kernel slice", kernelSlice/1000)}
	var first *pipeline.Counters
	for first == nil || time.Now().Before(e.deadline) {
		root := e.sp.start("kernel-long.run", -1)
		r, err := runFull(e, cfg, kernelSlice, root)
		e.sp.end(root)
		if err != nil {
			e.checks.op(err)
			if first == nil {
				return nil, err
			}
			continue
		}
		if first == nil {
			first = &r.res.Counters
		}
		e.checks.op(checkFull(cfg, r, first))
		out.addFull(r)
		for _, s := range r.sliceSecs {
			out.ops = append(out.ops, s*1e6)
		}
	}
	return out, nil
}

func runSampledPoint(e *env) (*outcome, error) {
	cfg, err := sampledPoint(e.seed)
	if err != nil {
		return nil, err
	}
	opts := sample.DefaultOptions()
	out := &outcome{opName: "sampled estimate, sample.Run at default options"}
	var first, firstEst *pipeline.Counters
	for first == nil || time.Now().Before(e.deadline) {
		root := e.sp.start("sampled-point.op", -1)
		r, err := runFull(e, cfg, cfg.MeasureInstructions, root)
		if err != nil {
			e.sp.end(root)
			e.checks.op(err)
			if first == nil {
				return nil, err
			}
			continue
		}
		ts := time.Now()
		sp := e.sp.start("sample.Run", root)
		est, err := sample.Run(context.Background(), cfg, opts)
		e.sp.end(sp)
		secs := time.Since(ts).Seconds()
		e.sp.end(root)
		if err != nil {
			e.checks.op(err)
			continue
		}
		if first == nil {
			first, firstEst = &r.res.Counters, &est.Counters
		}
		e.checks.op(checkSampled(cfg, r, est, first, firstEst))
		out.addFull(r)
		out.ops = append(out.ops, secs*1e6)
	}
	return out, nil
}

// checkSampled holds for every sampled-point operation: the full run
// passes checkFull, the estimate is identical across operations with the
// same seed, and the estimated IPC, the quantity Figure 8 plots, is
// within sample.Metrics' declared bound of the full run. The other
// declared bounds are reported, not enforced, by the sample probe:
// swim's rare-event rates break them on many seeds.
func checkSampled(cfg pipeline.Config, r *fullRun, est *sample.Estimate, first, firstEst *pipeline.Counters) error {
	if err := checkFull(cfg, r, first); err != nil {
		return err
	}
	if est.Counters != *firstEst {
		return fmt.Errorf("sampled estimate differs from the first with the same seed")
	}
	for _, v := range sample.Compare(cfg.Workload.Name, est, r.res.Counters) {
		if v.Metric == "ipc" {
			return fmt.Errorf("%s", v)
		}
	}
	return nil
}
