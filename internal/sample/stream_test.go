package sample

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"loosesim/internal/pipeline"
	"loosesim/internal/workload"
)

// smallOpts keeps the stream tests cheap enough for go test -race.
var smallOpts = Options{Windows: 6, WindowInstructions: 1_000, DetailedWarmup: 1_000}

// serialRun is the reference sampler: the whole chain, then every window
// in index order, then Merge.
func serialRun(t *testing.T, cfg pipeline.Config, o Options) *Estimate {
	t.Helper()
	ckpts, err := Checkpoints(cfg, o)
	if err != nil {
		t.Fatal(err)
	}
	wcfg := WindowConfig(cfg, o)
	results := make([]*pipeline.Result, len(ckpts))
	for i, ckpt := range ckpts {
		if results[i], err = RunWindow(context.Background(), wcfg, ckpt); err != nil {
			t.Fatalf("window %d: %v", i, err)
		}
	}
	est, err := Merge(results, o, cfg.MeasureInstructions)
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// settle waits for the goroutine count to fall back to base.
func settle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Errorf("goroutines grew from %d to %d", base, runtime.NumGoroutine())
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunMatchesSerialReference is the determinism gate for the streamed
// sampler: at every worker count, Run must deep-equal the serial
// reference. scripts/check.sh runs it under -race.
func TestRunMatchesSerialReference(t *testing.T) {
	gcc := testCfg(t, "gcc", false)
	swim, err := workload.ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	smt, err := workload.ByName("m88-comp")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		label string
		cfg   pipeline.Config
	}{
		{"gcc/base", gcc},
		{"swim/dra-rf5", pipeline.DRAConfigRF(swim, 5)},
		{"m88-comp/smt", pipeline.DefaultConfig(smt)},
	}
	for _, tc := range cases {
		label, cfg := tc.label, tc.cfg
		cfg.WarmupInstructions = 5_000
		cfg.MeasureInstructions = 24_000
		want := serialRun(t, cfg, smallOpts)
		for _, procs := range []int{1, 2, 4} {
			prev := runtime.GOMAXPROCS(procs)
			got, err := Run(context.Background(), cfg, smallOpts)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("%s GOMAXPROCS=%d: %v", label, procs, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s GOMAXPROCS=%d: estimate differs from the serial reference", label, procs)
			}
		}
	}
}

// TestStreamPollsContext checks the chain stops at the next checkpoint
// once ctx is cancelled.
func TestStreamPollsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	emitted := 0
	err := Stream(ctx, testCfg(t, "gcc", false), smallOpts, func(int, []byte) error {
		emitted++
		cancel()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if emitted != 1 {
		t.Fatalf("emitted %d checkpoints after cancelling at the first, want 1", emitted)
	}
}

// TestRunCancelled cancels a Run whose chain is long: it must return
// ctx.Err() well before the chain alone could finish, and leave no
// goroutines behind.
func TestRunCancelled(t *testing.T) {
	cfg := testCfg(t, "gcc", false)
	cfg.WarmupInstructions = 0
	cfg.MeasureInstructions = 400_000
	opt := Options{Windows: 8, WindowInstructions: 500, DetailedWarmup: 500}
	t0 := time.Now()
	if _, err := Checkpoints(cfg, opt); err != nil {
		t.Fatal(err)
	}
	chainTime := time.Since(t0)

	base := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), chainTime/8)
	defer cancel()
	t0 = time.Now()
	_, err := Run(ctx, cfg, opt)
	if elapsed := time.Since(t0); elapsed >= chainTime {
		t.Errorf("cancelled Run took %v, the whole chain takes %v", elapsed, chainTime)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	settle(t, base)
}

// TestRunWindowErrorOrder runs windows that all exhaust their cycle
// budget: Run must report window 0's error, the first in index order.
func TestRunWindowErrorOrder(t *testing.T) {
	cfg := testCfg(t, "gcc", false)
	cfg.WarmupInstructions = 5_000
	cfg.MeasureInstructions = 24_000
	cfg.CycleBudget = 100
	base := runtime.NumGoroutine()
	_, err := Run(context.Background(), cfg, smallOpts)
	if !errors.Is(err, pipeline.ErrCycleBudget) {
		t.Fatalf("err = %v, want pipeline.ErrCycleBudget", err)
	}
	if !strings.HasPrefix(err.Error(), "sample: window 0: ") {
		t.Fatalf("err = %q, want window 0's", err)
	}
	settle(t, base)
}

// TestMoreWindowsThanInstructions is the regression case for windows
// zero instructions apart: with more windows than measured instructions
// every checkpoint was the same one, and the estimate carried a
// zero-width confidence interval.
func TestMoreWindowsThanInstructions(t *testing.T) {
	cfg := testCfg(t, "gcc", false)
	cfg.MeasureInstructions = 10
	opt := Options{Windows: 20, WindowInstructions: 100, DetailedWarmup: 100}
	if _, err := Checkpoints(cfg, opt); err == nil {
		t.Error("Checkpoints accepted 20 windows over 10 instructions")
	}
	if _, err := Run(context.Background(), cfg, opt); err == nil {
		t.Error("Run accepted 20 windows over 10 instructions")
	}
	opt.Windows = 10
	if _, err := Checkpoints(cfg, opt); err != nil {
		t.Errorf("one window per instruction: %v", err)
	}
}
