package pool

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// TestRunFirstErrorInIndexOrder fails every odd item: every item still
// runs, and the error reported is item 1's.
func TestRunFirstErrorInIndexOrder(t *testing.T) {
	var calls atomic.Int64
	err := Run(context.Background(), "item", 50, func(i int) error {
		calls.Add(1)
		if i%2 == 1 {
			return fmt.Errorf("odd %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "item 1: odd 1" {
		t.Fatalf("err = %v, want item 1's", err)
	}
	if calls.Load() != 50 {
		t.Fatalf("ran %d items, want 50", calls.Load())
	}
}

// TestRunSkipsAfterCancel checks a cancelled context skips every item
// that has not started.
func TestRunSkipsAfterCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	err := Run(ctx, "item", 10, func(int) error {
		calls.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) || calls.Load() != 0 {
		t.Fatalf("err = %v after %d calls, want context.Canceled after none", err, calls.Load())
	}
}

func TestRunEmpty(t *testing.T) {
	if err := Run(context.Background(), "item", 0, func(int) error {
		t.Fatal("called for an empty batch")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
