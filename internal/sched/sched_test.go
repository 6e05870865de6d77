package sched

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
)

func TestPoolDefaultsAndBounds(t *testing.T) {
	if w := NewPool(0).Workers(); w < 1 {
		t.Fatalf("default pool has %d workers", w)
	}
	p := NewPool(3)
	if p.Workers() != 3 {
		t.Fatalf("Workers() = %d", p.Workers())
	}
	// 3 workers = caller + 2 helper slots.
	if !p.TryAcquire() || !p.TryAcquire() {
		t.Fatal("could not claim the two helper slots")
	}
	if p.TryAcquire() {
		t.Fatal("claimed a third helper slot from a 3-worker pool")
	}
	p.Release()
	if !p.TryAcquire() {
		t.Fatal("released slot not reusable")
	}
}

func TestForEachCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		p := NewPool(workers)
		var hits [100]atomic.Int32
		p.ForEach(context.Background(), len(hits), func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, got)
			}
		}
	}
}

func TestForEachSerialOrder(t *testing.T) {
	p := NewPool(1)
	var order []int
	p.ForEach(context.Background(), 10, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("1-worker ForEach out of order: %v", order)
		}
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 4
	p := NewPool(workers)
	var cur, peak atomic.Int32
	var mu sync.Mutex
	p.ForEach(context.Background(), 64, func(i int) {
		c := cur.Add(1)
		mu.Lock()
		if c > peak.Load() {
			peak.Store(c)
		}
		mu.Unlock()
		for k := 0; k < 1000; k++ {
			_ = k * k
		}
		cur.Add(-1)
	})
	if got := peak.Load(); got > workers {
		t.Fatalf("observed %d concurrent tasks from a %d-worker pool", got, workers)
	}
}

// TestForEachNestedDoesNotDeadlock is the sweep→study→restart shape: every
// outer task fans out again on the same pool.
func TestForEachNestedDoesNotDeadlock(t *testing.T) {
	p := NewPool(2)
	var total atomic.Int32
	p.ForEach(context.Background(), 8, func(i int) {
		p.ForEach(context.Background(), 8, func(j int) { total.Add(1) })
	})
	if total.Load() != 64 {
		t.Fatalf("nested ForEach ran %d of 64 tasks", total.Load())
	}
}
