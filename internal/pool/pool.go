// Package pool is the bounded worker pool behind every in-process batch
// of simulations: loosesim.RunAllContext runs configs on it and the
// sampler (internal/sample) runs measurement windows on it.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers is the number of workers Run starts for n items:
// GOMAXPROCS, but never more than there are items.
func Workers(n int) int {
	return min(runtime.GOMAXPROCS(0), n)
}

// Run calls fn(i) for every i in [0, n) on Workers(n) goroutines that
// claim indices in ascending order, so item i never starts before items
// 0..i-1 have been claimed. An item claimed after ctx is cancelled is
// skipped with ctx.Err(). Every item runs or is skipped even after one
// fails, and Run returns the first error in index order, wrapped as
// "<what> <i>: <err>".
func Run(ctx context.Context, what string, n int, fn func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < Workers(n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = ctx.Err()
				if errs[i] == nil {
					errs[i] = fn(i)
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("%s %d: %w", what, i, err)
		}
	}
	return nil
}
