package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime/pprof"
	"time"

	"loosesim"
	"loosesim/internal/bpred"
	"loosesim/internal/core"
	"loosesim/internal/iq"
	"loosesim/internal/isa"
	"loosesim/internal/mem"
	"loosesim/internal/pipeline"
	"loosesim/internal/regfile"
	"loosesim/internal/sample"
	"loosesim/internal/snap"
	"loosesim/internal/uop"
	"loosesim/internal/workload"
)

// measureLayers is the traced run: half the time untraced, half traced
// with spans and a CPU profile, then the layer probes on the workload's
// point. The untraced half is the base of trace.overhead_pct.
func measureLayers(w workloadDef, name string, seed int64, seconds float64, c *checks, rep *report) error {
	plain, err := w.run(&env{seed: seed, deadline: deadline(seconds / 2), checks: c})
	if err != nil {
		return err
	}
	sp := newSpans()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	traced, err := w.run(&env{seed: seed, deadline: deadline(seconds / 2), sp: sp, checks: c})
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	if traced.digest != plain.digest {
		c.op(fmt.Errorf("traced pass simulated a different outcome from the untraced one"))
	}
	cfg, err := w.point(seed)
	if err != nil {
		return err
	}
	if err := probeLayers(cfg, sp, rep); err != nil {
		return err
	}
	if err := probeSample(cfg, sp, traced.pointCounters, c, rep); err != nil {
		return err
	}
	fs := traced.fleet
	if fs == nil {
		if fs, err = probeFleet(cfg, seed, sp, c); err != nil {
			return err
		}
	}
	rep.set("pool.busy_frac", fs.busyFrac, "ratio")
	rep.set("serve.hit_us", fs.serveHit, "us")
	rep.set("serve.queue_wait_ms", fs.queueWait, "ms")
	rep.set("serve.cache_hit_rate", fs.hitRate, "ratio")
	rep.set("serve.rejected", fs.rejected, "count")
	rep.set("serve.shed", fs.shed, "count")
	rep.set("dispatch.hop_us", fs.hitP50-fs.serveHit, "us")
	rep.set("dispatch.retries", fs.retries, "count")
	rep.set("dispatch.local_fallbacks", fs.localFallbk, "count")

	// The tail is reported here rather than end to end: on a shared
	// two-vCPU host it is set by scheduler ticks, and its run-to-run
	// spread exceeded any bound an end-to-end metric may have.
	tail, pct := tailLatency(plain.ops)
	rep.set("op_tail_us", tail, "us")
	rep.note("op_tail_us", fmt.Sprintf("p%.2f of the untraced half, %d of n=%d beyond it", pct, tailBeyond(len(plain.ops)), len(plain.ops)))
	rep.set("host.ns_per_cycle", 1e9*plain.simSeconds/plain.simCycles, "ns")
	rep.set("host.ns_per_issued", 1e9*plain.simSeconds/plain.simIssued, "ns")
	stages, err := foldStages(prof.Bytes())
	if err != nil {
		return err
	}
	for _, n := range stageNames {
		rep.set(n, stages[n], "share")
	}
	modelMetrics(plain, rep)
	rep.set("trace.overhead_pct", 100*(median(plain.kips)/median(traced.kips)-1), "%")
	rep.note("trace.overhead_pct", "sim_kips untraced vs traced with CPU profile")
	rep.set("failed_frac", float64(c.failed)/float64(max(c.attempted, 1)), "ratio")

	sp.printSelf(12)
	return sp.write(filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", name, seed)))
}

// timeBatch runs batch reps times, each under a span, and returns the
// median host nanoseconds per unit of work (batch returns its units).
func timeBatch(sp *spans, name string, reps int, batch func() int) float64 {
	var per []float64
	for i := 0; i < reps; i++ {
		id := sp.start(name, -1)
		t0 := time.Now()
		n := batch()
		d := time.Since(t0)
		sp.end(id)
		per = append(per, float64(d.Nanoseconds())/float64(n))
	}
	return median(per)
}

// notReady is the select predicate of the IQ probe. It is a package
// variable so the compiler cannot inline it into the scan, as the
// kernel's own predicate is not.
var notReady = func(*uop.UOp) bool { return false }

// probeLayers times the public calls of each kernel module on inputs drawn
// from cfg's workload.
func probeLayers(cfg pipeline.Config, sp *spans, rep *report) error {
	const n = 1 << 20
	prof := cfg.Workload.Threads[0]
	g := workload.NewGenerator(prof, cfg.Seed, 0)
	rep.set("workload.next_ns", timeBatch(sp, "workload.Generator.Next", 5, func() int {
		for i := 0; i < n; i++ {
			g.Next()
		}
		return n
	}), "ns")

	// Input streams for the memory and predictor probes.
	var addrs []uint64
	var pcs []uint64
	var taken []bool
	src := workload.NewGenerator(prof, cfg.Seed+1, 0)
	for len(addrs) < 1<<16 || len(pcs) < 1<<16 {
		in := src.Next()
		switch in.Op {
		case isa.Load:
			addrs = append(addrs, in.Addr)
		case isa.Branch:
			pcs, taken = append(pcs, in.PC), append(taken, in.Taken)
		default:
		}
	}
	h := mem.NewHierarchy(cfg.Mem)
	var cycle int64
	rep.set("mem.load_ns", timeBatch(sp, "mem.Hierarchy.Load", 5, func() int {
		for i := 0; i < n; i++ {
			cycle += 2
			h.Load(addrs[i&(1<<16-1)], cycle)
		}
		return n
	}), "ns")
	tp := bpred.NewDefaultTournament()
	rep.set("bpred.update_ns", timeBatch(sp, "bpred.Tournament.Predict+Update", 5, func() int {
		for i := 0; i < n; i++ {
			j := i & (1<<16 - 1)
			tp.Predict(pcs[j])
			tp.Update(pcs[j], taken[j])
		}
		return n
	}), "ns")

	// A full queue: every cluster list holds its share of the entries,
	// one in four already issued (retained), none ready to select.
	q := iq.New(iq.Config{Entries: cfg.IQEntries, Clusters: cfg.Clusters})
	for s := uint64(0); !q.Full(); s++ {
		u := uop.New(isa.Inst{}, 0, s, 0)
		u.Cluster = q.LeastLoadedCluster()
		u.State = uop.StateWaiting
		if s%4 == 3 {
			u.State = uop.StateIssued
		}
		q.Insert(u)
	}
	rep.set("iq.select_ns", timeBatch(sp, "iq.Queue.SelectOldestReady", 5, func() int {
		for i := 0; i < n; i++ {
			q.SelectOldestReady(i%cfg.Clusters, notReady)
		}
		return n
	}), "ns")
	rep.set("iq.retained_ns", timeBatch(sp, "iq.Queue.Retained", 5, func() int {
		for i := 0; i < n/8; i++ {
			q.Retained()
		}
		return n / 8
	}), "ns")

	dcfg := cfg.DRA
	if dcfg.Validate() != nil {
		dcfg = core.DefaultConfig()
	}
	crc := core.NewCRCWith(dcfg.CRCEntries, dcfg.Policy, dcfg.TimeoutCycles)
	for p := 0; p < dcfg.CRCEntries; p++ {
		crc.Insert(regfile.PReg(p), 0)
	}
	rep.set("core.crc_lookup_ns", timeBatch(sp, "core.CRC.Lookup", 5, func() int {
		for i := 0; i < n; i++ {
			crc.Lookup(regfile.PReg(i%(2*dcfg.CRCEntries)), 1)
		}
		return n
	}), "ns")

	var m *pipeline.Machine
	var err error
	rep.set("pipeline.new_ms", timeBatch(sp, "pipeline.New", 9, func() int {
		m, err = pipeline.New(cfg)
		return 1
	})/1e6, "ms")
	if err != nil {
		return err
	}
	const warm = 1 << 20
	rep.set("pipeline.warm_ns_per_inst", timeBatch(sp, "pipeline.Machine.WarmForward", 1, func() int {
		m.WarmForward(warm)
		return warm
	}), "ns")
	var ckpt []byte
	rep.set("pipeline.snapshot_ms", timeBatch(sp, "pipeline.Machine.Snapshot", 5, func() int {
		ckpt, err = m.Snapshot()
		return 1
	})/1e6, "ms")
	if err != nil {
		return err
	}
	rep.set("pipeline.snapshot_bytes", float64(len(ckpt)), "bytes")
	rep.set("snap.digest_ms", timeBatch(sp, "snap.Digest", 5, func() int {
		snap.Digest(ckpt)
		return 1
	})/1e6, "ms")
	return nil
}

// probeSample runs cfg's sampled estimate call by call: the checkpoint
// chain, each window restored from its predecessor, and the merge. The
// estimate must equal sample.Run's, and is scored against the full run's
// counters.
func probeSample(cfg pipeline.Config, sp *spans, full pipeline.Counters, c *checks, rep *report) error {
	ctx := context.Background()
	opts := sample.DefaultOptions()
	var ckpts [][]byte
	var err error
	rep.set("sample.checkpoints_s", timeBatch(sp, "sample.Checkpoints", 1, func() int {
		ckpts, err = sample.Checkpoints(cfg, opts)
		return 1
	})/1e9, "s")
	if err != nil {
		return err
	}
	wcfg := sample.WindowConfig(cfg, opts)
	results := make([]*pipeline.Result, len(ckpts))
	rep.set("sample.windows_s", timeBatch(sp, "sample.windows", 1, func() int {
		var donor *pipeline.Machine
		for i, ck := range ckpts {
			var m *pipeline.Machine
			if m, err = pipeline.RestoreReusing(wcfg, ck, donor); err != nil {
				return 1
			}
			if results[i], err = m.RunContext(ctx); err != nil {
				return 1
			}
			donor = m
		}
		return 1
	})/1e9, "s")
	if err != nil {
		return err
	}
	var est *sample.Estimate
	rep.set("sample.merge_ms", timeBatch(sp, "sample.Merge", 1, func() int {
		est, err = sample.Merge(results, opts, cfg.MeasureInstructions)
		return 1
	})/1e6, "ms")
	if err != nil {
		return err
	}
	ref, err := sample.Run(ctx, cfg, opts)
	if err != nil {
		return err
	}
	if ref.Counters != est.Counters {
		c.op(fmt.Errorf("call-by-call sampled estimate differs from sample.Run"))
	} else {
		c.op(nil)
	}
	rep.set("sample.ipc_ci95_pct", 100*est.Metrics["ipc"].RelCI(), "%")
	rep.set("sampled_ipc_err_pct", 100*math.Abs(est.Counters.IPC()-full.IPC())/full.IPC(), "%")
	rep.set("sample.bound_violations", float64(len(sample.Compare(cfg.Workload.Name, est, full))), "count")
	for i, name := range []string{"pipeline.restore_first_ms", "pipeline.restore_last_ms"} {
		ck := ckpts[i*(len(ckpts)-1)]
		rep.set(name, timeBatch(sp, "pipeline.Restore", 3, func() int {
			_, err = pipeline.Restore(wcfg, ck)
			return 1
		})/1e6, "ms")
		if err != nil {
			return err
		}
	}
	return nil
}

// probeFleet measures the serve and dispatch layers for a workload that
// does not use them: a fleet runs cfg at the quick length under four
// seeds cold, checked against loosesim.RunAll, then replays them as hits.
func probeFleet(cfg pipeline.Config, seed int64, sp *spans, c *checks) (*fleetStats, error) {
	o := fig8Options(seed)
	var batch []pipeline.Config
	for i := int64(0); i < 4; i++ {
		b := cfg
		b.Seed, b.WarmupInstructions, b.MeasureInstructions = seed+i, o.Warmup, o.Measure
		batch = append(batch, b)
	}
	want, err := loosesim.RunAll(batch)
	if err != nil {
		return nil, err
	}
	f, err := startFleet(true)
	if err != nil {
		return nil, err
	}
	defer f.close()
	cold := func(runner func([]pipeline.Config) ([]*pipeline.Result, error)) error {
		got, err := runner(batch)
		for i := range got {
			if err == nil && !sameResult(got[i], want[i]) {
				err = fmt.Errorf("fleet result %d differs from loosesim.RunAll", i)
			}
		}
		return err
	}
	e := &env{seed: seed, sp: sp, checks: c}
	out := &outcome{}
	if _, _, err := fleetRep(e, f, cold, 1000, out); err != nil {
		return nil, err
	}
	return out.fleet, nil
}
