package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"loosesim"
	"loosesim/internal/dispatch"
	"loosesim/internal/experiments"
	"loosesim/internal/pipeline"
	"loosesim/internal/serve"
	"loosesim/internal/trace"
)

// fig8-served regenerates Figure 8 (13 benchmarks x base/DRA x register
// file 3/5/7, 78 configurations, 20k warmup and 20k measured instructions
// each) through a dispatch.Coordinator, loopback HTTP and an in-process
// serve.Server with two workers and an in-memory store. Each repetition
// starts a fresh fleet, runs the figure cold (every point a cache miss),
// then has fleetClients closed-loop clients replay grid points one
// request at a time, fig8HitsPerClient each, every request a cache hit.
// The hit count is fixed rather than the hit phase's duration: the server
// keeps every job it has seen, so its memory grows with the requests it
// served. One client, not two: on a two-vCPU host two clients plus the
// server's and transport's goroutines oversubscribe the CPUs, and the
// median hit moved between 85 and 110 µs from run to run with them.
const (
	fleetWorkers      = 2
	fleetClients      = 1
	fig8HitsPerClient = 10_000
	fig8Instructions  = 20_000
	// fig8Setups is how many times a run computes the reference figure
	// and starts a fleet before measuring; setup_s is their median.
	fig8Setups = 3
)

func fig8Options(seed int64) experiments.Options {
	return experiments.Options{Measure: fig8Instructions, Warmup: fig8Instructions, Seed: seed}
}

// fig8Point is the grid's swim DRA rf5 cell, the layer probes' config.
func fig8Point(seed int64) (pipeline.Config, error) {
	cfg, err := loosesim.DRAMachine("swim", 5)
	o := fig8Options(seed)
	cfg.Seed, cfg.WarmupInstructions, cfg.MeasureInstructions = o.Seed, o.Warmup, o.Measure
	return cfg, err
}

// fleet is one backend and the coordinator in front of it.
type fleet struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	coord  *dispatch.Coordinator
	// spans collects the server's own per-job spans (traced runs only).
	spans *trace.Collector
}

// startFleet starts a fleet and waits until the backend answers.
func startFleet(traced bool) (*fleet, error) {
	opts := serve.Options{Workers: fleetWorkers, Store: serve.NewMemStore(), Now: time.Now}
	f := &fleet{served: make(chan error, 1)}
	if traced {
		f.spans = &trace.Collector{}
		opts.Tracer = trace.New(trace.Options{Now: time.Now, Sink: f.spans})
	}
	f.srv = serve.New(opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.srv.Close()
		return nil, err
	}
	f.hs = &http.Server{Handler: f.srv.Handler()}
	go func() { f.served <- f.hs.Serve(ln) }()
	url := "http://" + ln.Addr().String()
	if f.coord, err = dispatch.New(dispatch.Options{Backends: []string{url}}); err != nil {
		f.close()
		return nil, err
	}
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		f.close()
		return nil, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		f.close()
		return nil, fmt.Errorf("backend health check: %s", resp.Status)
	}
	return f, nil
}

// close stops the coordinator, the HTTP server and the workers, and waits
// for each.
func (f *fleet) close() {
	if f.coord != nil {
		f.coord.Close()
	}
	f.hs.Close()
	<-f.served
	f.srv.Close()
}

// fleetStats are the serve and dispatch layer figures of one repetition.
type fleetStats struct {
	hitP50      float64 // µs, through the coordinator
	serveHit    float64 // µs, in-process Submit to Done on a cached key
	queueWait   float64 // ms, median serve "queue" span
	busyFrac    float64 // summed job host seconds / (workers x cold wall)
	hitRate     float64
	rejected    float64
	shed        float64
	retries     float64
	localFallbk float64
}

// coldFunc runs a cold batch through runner.
type coldFunc func(runner func([]pipeline.Config) ([]*pipeline.Result, error)) error

// fleetRep is one repetition on a started fleet: the cold batch, then the
// hit phase replaying every configuration the cold batch ran.
func fleetRep(e *env, f *fleet, cold coldFunc, hitsPerClient int, out *outcome) (cfgs []pipeline.Config, results []*pipeline.Result, err error) {
	ctx := context.Background()
	root := e.sp.start("fleet.cold", -1)
	runner := func(batch []pipeline.Config) ([]*pipeline.Result, error) {
		sp := e.sp.start("dispatch.Coordinator.RunAll", root)
		res, err := f.coord.RunAll(ctx, batch)
		e.sp.end(sp)
		if err == nil {
			cfgs = append(cfgs, batch...)
			results = append(results, res...)
		}
		return res, err
	}
	a0 := mallocs()
	t0 := time.Now()
	err = cold(runner)
	secs := time.Since(t0).Seconds()
	e.sp.end(root)
	allocs := mallocs() - a0
	e.checks.op(err)
	if err != nil {
		return nil, nil, err
	}
	var retired uint64
	for _, r := range results {
		retired += r.TotalRetired
	}
	out.kips = append(out.kips, float64(retired)/1000/secs)
	out.allocs = append(out.allocs, float64(allocs)/(float64(retired)/1000))
	// Jobs run whole (construction, warmup, window) on the workers; the
	// issue count covers the window only, so it is scaled to the run.
	for _, s := range f.srv.Jobs() {
		out.simSeconds += s.HostSeconds
	}
	for _, r := range results {
		out.simCycles += float64(r.TotalCycles)
		out.simIssued += float64(r.Counters.IssuedTotal) * float64(r.TotalCycles) / float64(r.Counters.Cycles)
	}

	// Start the hit phase from a collected heap, so the cold phase's
	// garbage does not land its collection cost on the first hits.
	runtime.GC()
	before := f.coord.Metrics().CacheHits
	lat := hitPhase(e, f, cfgs, results, hitsPerClient)
	out.ops = append(out.ops, lat...)
	if got := f.coord.Metrics().CacheHits - before; got != uint64(len(lat)) {
		e.checks.op(fmt.Errorf("%d of %d replayed requests were cache hits", got, len(lat)))
	}
	if e.sp != nil {
		out.fleet = f.layerStats(cfgs[0], secs, median(lat))
	}
	return cfgs, results, nil
}

// hitPhase has fleetClients closed-loop clients replay seeded-random
// configurations, one request at a time, each checked against its cold
// result. It returns every request's latency in µs.
func hitPhase(e *env, f *fleet, cfgs []pipeline.Config, results []*pipeline.Result, perClient int) []float64 {
	ctx := context.Background()
	lat := make([][]float64, fleetClients)
	var mu sync.Mutex // guards e.checks
	var wg sync.WaitGroup
	for c := 0; c < fleetClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(e.seed*1009 + int64(c)))
			root := e.sp.start("fleet.client", -1)
			defer e.sp.end(root)
			for n := 0; n < perClient; n++ {
				i := rng.Intn(len(cfgs))
				ts := time.Now()
				sp := e.sp.start("dispatch.Coordinator.RunAll", root)
				res, err := f.coord.RunAll(ctx, cfgs[i:i+1])
				e.sp.end(sp)
				lat[c] = append(lat[c], float64(time.Since(ts).Nanoseconds())/1e3)
				if err == nil && !sameResult(res[0], results[i]) {
					err = fmt.Errorf("hit on config %d differs from its cold reply", i)
				}
				mu.Lock()
				e.checks.op(err)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	var all []float64
	for _, l := range lat {
		all = append(all, l...)
	}
	return all
}

func sameResult(a, b *pipeline.Result) bool {
	return a.Counters == b.Counters && a.Cycles == b.Cycles &&
		a.TotalCycles == b.TotalCycles && a.TotalRetired == b.TotalRetired
}

// layerStats reads the serve and dispatch layer figures after a
// repetition; it also times in-process hits on cfg, which is cached.
func (f *fleet) layerStats(cfg pipeline.Config, coldSecs, hitP50 float64) *fleetStats {
	st := &fleetStats{hitP50: hitP50}
	var hit []float64
	for i := 0; i < 2000; i++ {
		ts := time.Now()
		job, err := f.srv.Submit(serve.JobSpec{Config: &cfg})
		if err != nil {
			break
		}
		<-job.Done()
		hit = append(hit, float64(time.Since(ts).Nanoseconds())/1e3)
	}
	st.serveHit = median(hit)
	var busy float64
	for _, s := range f.srv.Jobs() {
		busy += s.HostSeconds
	}
	st.busyFrac = busy / (fleetWorkers * coldSecs)
	var wait []float64
	for _, s := range f.spans.Spans() {
		if s.Name == "queue" {
			wait = append(wait, float64(s.Duration().Nanoseconds())/1e6)
		}
	}
	st.queueWait = median(wait)
	m := f.srv.Metrics()
	st.hitRate, st.rejected, st.shed = m.Cache.HitRate, float64(m.Jobs.Rejected), float64(m.Jobs.Shed)
	cm := f.coord.Metrics()
	st.retries, st.localFallbk = float64(cm.Retries), float64(cm.LocalFallbacks)
	return st
}

func runFig8Served(e *env) (*outcome, error) {
	opt := fig8Options(e.seed)
	out := &outcome{opName: "cache-hit request: dispatch, loopback HTTP, serve"}
	// Set-up computes the table the fleet's must equal, the same grid
	// through loosesim.RunAll in this process, and starts a fleet.
	var want string
	for i := 0; i < fig8Setups; i++ {
		t0 := time.Now()
		ref, err := experiments.Fig8(opt)
		if err != nil {
			return nil, err
		}
		f, err := startFleet(false)
		if err != nil {
			return nil, err
		}
		out.setup = append(out.setup, time.Since(t0).Seconds())
		f.close()
		if i > 0 && ref.String() != want {
			e.checks.op(fmt.Errorf("local Figure 8 differs between set-ups"))
		}
		want = ref.String()
	}
	cold := func(runner func([]pipeline.Config) ([]*pipeline.Result, error)) error {
		o := opt
		o.Runner = runner
		tbl, err := experiments.Fig8(o)
		if err == nil && tbl.String() != want {
			err = fmt.Errorf("fleet Figure 8 table differs from the local one")
		}
		return err
	}
	point, err := fig8Point(e.seed)
	if err != nil {
		return nil, err
	}
	for rep := 0; rep == 0 || time.Now().Before(e.deadline); rep++ {
		f, err := startFleet(e.sp != nil)
		if err != nil {
			return nil, err
		}
		cfgs, results, err := fleetRep(e, f, cold, fig8HitsPerClient, out)
		f.close()
		// Free the finished fleet's jobs before the next one, so the peak
		// resident set is one fleet's.
		runtime.GC()
		if err != nil {
			continue
		}
		ctrs := make([]pipeline.Counters, len(results))
		var sum pipeline.Counters
		for i, r := range results {
			ctrs[i] = r.Counters
			sum = sum.Add(r.Counters)
			if sameConfig(cfgs[i], point) {
				out.pointCounters = r.Counters
			}
		}
		if out.digest == 0 {
			out.model, out.digest = sum, digest(ctrs)
		} else if d := digest(ctrs); d != out.digest {
			e.checks.op(fmt.Errorf("cold grid counters differ between repetitions"))
		}
	}
	return out, nil
}

// sameConfig reports whether a grid entry is the probes' point.
func sameConfig(a, b pipeline.Config) bool {
	return a.Workload.Name == b.Workload.Name && a.UseDRA == b.UseDRA &&
		a.RegReadLat == b.RegReadLat && a.Seed == b.Seed
}
