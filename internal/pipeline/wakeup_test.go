package pipeline

import (
	"context"
	"runtime"
	"testing"

	"loosesim/internal/regfile"
	"loosesim/internal/uop"
	"loosesim/internal/workload"
)

// kernelConfigs are the machines the per-cycle IQ checks run on: the base
// machine, the DRA on apsi (operand misses revert issued entries), load
// stall with conservative memory dependence (loads gated every cycle, ready
// times announced at execute), store-wait on swim (memory-order traps and
// trained waits), and 2-thread SMT (two windows sharing one queue).
func kernelConfigs(t *testing.T) map[string]Config {
	t.Helper()
	mk := func(bench string, mutate func(*Config)) Config {
		wl, err := workload.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(wl)
		if mutate != nil {
			mutate(&cfg)
		}
		cfg.WarmupInstructions = 4_000
		cfg.MeasureInstructions = 16_000
		return cfg
	}
	return map[string]Config{
		"gcc-base": mk("gcc", nil),
		"apsi-dra": mk("apsi", func(c *Config) { *c = DRAConfigRF(c.Workload, 5) }),
		"gcc-loadstall-conservative": mk("gcc", func(c *Config) {
			c.LoadPolicy = LoadStall
			c.MemDep = MemDepConservative
		}),
		"swim-storewait": mk("swim", func(c *Config) { c.MemDep = MemDepStoreWait }),
		"smt":            mk("m88-comp", nil),
	}
}

// stepChecked advances m a cycle at a time until n instructions have
// retired in total, running check after every cycle.
func stepChecked(m *Machine, n uint64, check func()) {
	if m.cfg.WarmupInstructions == 0 && !m.measuring {
		m.startMeasuring()
	}
	for m.ctr.Retired < n {
		m.step()
		if !m.measuring && m.ctr.Retired >= m.cfg.WarmupInstructions {
			m.startMeasuring()
		}
		check()
	}
}

// checkKernel verifies, at a cycle boundary, every derived piece of IQ
// state against a brute-force recomputation:
//   - Retained equals a scan of the entries' states;
//   - each queued entry's WakeAt is at most its wake cycle;
//   - the waiter lists hold exactly one node per distinct register each
//     queued entry reads, each on that register's list, with consistent
//     back links;
//   - per cluster, the entry issue chose this cycle is the one the
//     brute-force select (refSelect) picks.
func checkKernel(t *testing.T, m *Machine) {
	t.Helper()
	retained, links := 0, 0
	for c := 0; c < m.cfg.Clusters; c++ {
		var issued *uop.UOp
		for _, u := range m.q.ClusterEntries(c) {
			if u.State == uop.StateIssued || u.State == uop.StateDone {
				retained++
			}
			if u.WakeAt > m.wakeCycle(u) {
				t.Fatalf("cycle %d: %v WakeAt %d past its wake cycle %d", m.cycle, u, u.WakeAt, m.wakeCycle(u))
			}
			if u.IssueCycle == m.cycle {
				issued = u
			}
			links += u.NumSrc
			if u.NumSrc == 2 && u.Src[0] == u.Src[1] {
				links--
			}
		}
		if want := refSelect(m, c); issued != want {
			t.Fatalf("cycle %d cluster %d: issue chose %v, brute-force select %v", m.cycle, c, issued, want)
		}
	}
	if got := m.q.Retained(); got != retained {
		t.Fatalf("cycle %d: Retained() = %d, scan %d", m.cycle, got, retained)
	}
	for p := range m.waiters {
		prev := &m.waiters[p]
		for w := prev.Next; w != nil; prev, w = w, w.Next {
			u := w.U
			slot := 0
			if w == &u.Wait[1] {
				slot = 1
			}
			if w != &u.Wait[slot] || !u.InIQ || slot >= u.NumSrc || u.Src[slot] != regfile.PReg(p) {
				t.Fatalf("cycle %d: p%d's waiter list holds a stray link of %v", m.cycle, p, u)
			}
			if w.Prev != prev {
				t.Fatalf("cycle %d: p%d's waiter list has a broken back link at %v", m.cycle, p, u)
			}
			links--
		}
	}
	if links != 0 {
		t.Fatalf("cycle %d: waiter lists miss %d links of queued entries", m.cycle, links)
	}
}

// refSelect is the brute-force select the wake-cycle filter replaced: the
// oldest entry of cluster c that was waiting when issue ran this cycle and
// passes the wakeup predicate, written out from first principles.
//
// It runs after the cycle completes, so it reconstructs issue's view:
// entries renamed this cycle (after issue) are excluded, and entries
// issued this cycle count as waiting. Evaluating the predicate after issue
// is exact because issue changes only the ready times of the issued
// entries' destinations, from inf (a waiting producer's destination is
// never believed ready) to at least cycle+IQExLat+1 (every latency is at
// least 1) — not ready this cycle either way.
func refSelect(m *Machine, c int) *uop.UOp {
	for _, u := range m.q.ClusterEntries(c) {
		if u.EnterIQCycle == m.cycle {
			continue
		}
		if u.State != uop.StateWaiting && u.IssueCycle != m.cycle {
			continue
		}
		if m.cycle < u.MinIssueCycle || m.loadMustWait(u) {
			continue
		}
		ready := true
		for i := 0; i < u.NumSrc; i++ {
			if m.readyAt[u.Src[i]] > m.cycle+int64(m.cfg.IQExLat) {
				ready = false
			}
		}
		if ready {
			return u
		}
	}
	return nil
}

// TestIQKernelInvariants checks the incremental retained count, the wake
// cycles, the waiter lists and the filtered select against brute force
// on every cycle of every kernel configuration, through warmup and
// measurement.
func TestIQKernelInvariants(t *testing.T) {
	for name, cfg := range kernelConfigs(t) {
		t.Run(name, func(t *testing.T) {
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			total := cfg.WarmupInstructions + cfg.MeasureInstructions
			stepChecked(m, total, func() { checkKernel(t, m) })
			if m.ctr.IssuedTotal == 0 {
				t.Fatal("nothing issued")
			}
		})
	}
}

// TestIQKernelInvariantsAfterRestore runs the same checks on machines
// resumed from a mid-run checkpoint, whose wake cycles and waiter lists
// are rebuilt rather than restored. The resumed run must also match the
// uninterrupted one.
func TestIQKernelInvariantsAfterRestore(t *testing.T) {
	for name, cfg := range kernelConfigs(t) {
		t.Run(name, func(t *testing.T) {
			total := cfg.WarmupInstructions + cfg.MeasureInstructions
			ref, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			refRes, err := ref.RunContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}

			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.RunUntilRetired(context.Background(), total/2); err != nil {
				t.Fatal(err)
			}
			resumed, err := Restore(cfg, mustSnapshot(t, m))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := resumed.q.Retained(), m.q.Retained(); got != want {
				t.Fatalf("restored Retained() = %d, checkpointed machine %d", got, want)
			}
			stepChecked(resumed, total, func() { checkKernel(t, resumed) })
			if resumed.cycle != refRes.TotalCycles {
				t.Errorf("resumed run finished at cycle %d, uninterrupted at %d", resumed.cycle, refRes.TotalCycles)
			}
		})
	}
}

// TestSteadyStateAllocs verifies the simlint:prealloc claims on the
// per-cycle paths (trackStore, trackLoad, iq.Insert, deque.push and the
// event ring): once the machine reaches its high-water marks it stops
// allocating, so allocations grow by less than one per 1k retired
// instructions between a 100k and a 500k measured-instruction run.
func TestSteadyStateAllocs(t *testing.T) {
	wl, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(measure uint64) uint64 {
		cfg := DefaultConfig(wl)
		cfg.MeasureInstructions = measure
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.Run()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	const short, long = 100_000, 500_000
	a, b := allocs(short), allocs(long)
	slope := (float64(b) - float64(a)) / float64(long-short) * 1000
	t.Logf("allocations: %d at %dk, %d at %dk measured: %.3f per 1k retired", a, short/1000, b, long/1000, slope)
	if slope > 1 {
		t.Errorf("steady-state allocation slope %.3f per 1k retired instructions, want <= 1", slope)
	}
}
