package sched

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pipesyn/internal/testutil"
)

// TestForEachCancelStopsDispatch cancels mid-run: indices not yet
// dispatched must never start, the call must return ctx.Err(), and no
// helper goroutine may outlive the call.
func TestForEachCancelStopsDispatch(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	ctx, cancel := context.WithCancel(context.Background())
	p := NewPool(4)
	var started atomic.Int32
	err := p.ForEach(ctx, 1000, func(i int) {
		if started.Add(1) == 5 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ForEach returned %v, want context.Canceled", err)
	}
	// The workers observe the cancellation before pulling the next index,
	// so at most one in-flight task per worker can complete after it.
	if n := started.Load(); n > 5+4 {
		t.Fatalf("%d tasks started after cancellation point", n)
	}
}

// TestForEachPreCancelled never runs a single task.
func TestForEachPreCancelled(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	if err := NewPool(2).ForEach(ctx, 10, func(int) { ran = true }); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if ran {
		t.Fatal("task ran under a pre-cancelled context")
	}
}

// TestForEachPanicFaultIsolated proves a panicking task surfaces as a
// *PanicError instead of crashing the process, and stops the fan-out.
func TestForEachPanicFaultIsolated(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	for _, workers := range []int{1, 4} {
		p := NewPool(workers)
		err := p.ForEach(context.Background(), 50, func(i int) {
			if i == 3 {
				panic("injected fault")
			}
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.Value != "injected fault" || pe.Index != 3 || !strings.Contains(pe.Label, "3") {
			t.Fatalf("workers=%d: PanicError = %+v", workers, pe)
		}
		if len(pe.Stack) == 0 {
			t.Fatal("PanicError carries no stack")
		}
	}
}

// TestForEachDeadlineLeak exercises the timeout form of cancellation
// under stalled tasks: every task blocks until the deadline, ForEach must
// return DeadlineExceeded and release all helper goroutines.
func TestForEachDeadlineLeak(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := NewPool(4).ForEach(ctx, 8, func(int) {
		<-ctx.Done() // a stalled evaluation that honors cancellation
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}
