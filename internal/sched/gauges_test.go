package sched

import (
	"context"
	"sync"
	"testing"
)

// TestPoolGaugesForEach checks the queued/inflight gauges the service
// /metrics endpoint scrapes: mid-flight they reflect the stalled tasks,
// and they settle back to zero when the work completes.
func TestPoolGaugesForEach(t *testing.T) {
	p := NewPool(3)
	if p.Queued() != 0 || p.InFlight() != 0 {
		t.Fatalf("idle pool: queued %d inflight %d", p.Queued(), p.InFlight())
	}
	const n = 8
	gate := make(chan struct{})
	running := make(chan struct{}, n)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = p.ForEach(context.Background(), n, func(i int) {
			running <- struct{}{}
			<-gate
		})
	}()
	// All 3 workers (2 helpers + caller) stall inside a task.
	for i := 0; i < 3; i++ {
		<-running
	}
	if got := p.InFlight(); got != 3 {
		t.Errorf("inflight %d, want 3", got)
	}
	if got := p.Queued(); got != n-3 {
		t.Errorf("queued %d, want %d", got, n-3)
	}
	close(gate)
	wg.Wait()
	if p.Queued() != 0 || p.InFlight() != 0 {
		t.Fatalf("after ForEach: queued %d inflight %d", p.Queued(), p.InFlight())
	}
}

// TestPoolGaugesSettleOnCancel verifies the gauges also settle when a
// cancelled ForEach leaves indices unclaimed.
func TestPoolGaugesSettleOnCancel(t *testing.T) {
	p := NewPool(2)
	ctx, cancel := context.WithCancel(context.Background())
	err := p.ForEach(ctx, 6, func(i int) {
		if i == 1 {
			cancel() // the remaining indices are never claimed
		}
	})
	if err == nil {
		t.Fatal("cancelled ForEach returned nil")
	}
	if p.Queued() != 0 || p.InFlight() != 0 {
		t.Fatalf("after cancelled ForEach: queued %d inflight %d", p.Queued(), p.InFlight())
	}
}
