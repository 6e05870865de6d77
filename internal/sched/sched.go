// Package sched provides the shared concurrency substrate for the
// synthesis engine: a bounded worker budget (Pool) and its index-space
// fan-out (ForEach).
//
// The paper's flow is embarrassingly parallel almost everywhere — the
// ~20 exact MDAC design points of a study, the independent restarts of
// one synthesis, and the per-resolution studies of a sweep are all
// independent evaluator-bound work. The one ordering constraint,
// retargeting's preference for a completed neighbour as warm start, is
// expressed by the caller as successive ForEach waves (see core), so
// the parallel schedule sees exactly the warm sources the serial one
// would.
//
// Deadlock freedom under nesting (a sweep running studies, each study
// running design points, each design point running restarts, all on one
// Pool) comes from a simple rule: no caller ever blocks waiting for a
// token. A worker slot is acquired with TryAcquire only, and the calling
// goroutine always executes work itself, so forward progress never
// depends on a token being released.
//
// sched is also the engine's fault boundary. ForEach accepts a context:
// cancellation stops new work from dispatching (in-flight tasks finish
// their current unit) and surfaces as ctx.Err(). A panic in any task —
// whether it runs on a helper goroutine or inline on the caller — is
// recovered and converted into a *PanicError instead of crashing the
// process.
package sched

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is a worker panic converted into an error at the sched
// fault boundary. Index is the ForEach task index that panicked, Label
// names that unit of work ("task N" until a caller that knows what the
// index stands for relabels it), Value is the recovered panic value,
// and Stack is the panicking goroutine's stack trace.
type PanicError struct {
	Index int
	Label string
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sched: panic in %s: %v", e.Label, e.Value)
}

// Pool is a shared bounded budget of extra worker goroutines. A Pool
// with N workers allows at most N-1 spawned helpers: the calling
// goroutine is always the N-th worker, which is what makes nested use
// (study → design point → restarts on one Pool) deadlock-free.
type Pool struct {
	workers int
	tokens  chan struct{}

	// Load gauges for operational visibility (the adcsynd /metrics
	// endpoint scrapes them): queued counts tasks admitted to a ForEach
	// that have not started executing yet, inflight counts tasks
	// currently executing. Both are plain atomics so the hot dispatch
	// path pays two adds per task.
	queued   atomic.Int64
	inflight atomic.Int64
}

// NewPool sizes a budget of `workers` concurrent executors. workers <= 0
// defaults to GOMAXPROCS; workers == 1 makes every ForEach fully serial
// on the calling goroutine, in deterministic index order.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers, tokens: make(chan struct{}, workers-1)}
}

// Workers reports the configured concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// Queued reports how many admitted tasks across all active ForEach
// calls have not started executing yet. It is a point-in-time gauge
// for monitoring, not a synchronization primitive.
func (p *Pool) Queued() int64 { return p.queued.Load() }

// InFlight reports how many tasks are executing right now across all
// active ForEach calls on this pool.
func (p *Pool) InFlight() int64 { return p.inflight.Load() }

// TryAcquire claims a helper slot without blocking. Callers that get a
// slot must Release it when the helper goroutine exits.
func (p *Pool) TryAcquire() bool {
	select {
	case p.tokens <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release returns a slot claimed by TryAcquire.
func (p *Pool) Release() { <-p.tokens }

// ForEach runs f(i) for every i in [0, n), spreading the calls over the
// calling goroutine plus as many helpers as the pool can spare right
// now. With a 1-worker pool the calls happen inline in index order.
//
// Cancelling ctx stops further indices from dispatching — tasks already
// running finish — and ForEach returns ctx.Err(). A panicking task does
// not crash the process: the panic is recovered, dispatch stops, and the
// lowest-index *PanicError is returned. Either way the caller must treat
// its per-index outputs as partial: an index may never have run.
func (p *Pool) ForEach(ctx context.Context, n int, f func(int)) error {
	if n <= 0 {
		return nil
	}
	var next atomic.Int64
	var aborted atomic.Bool
	var claimed atomic.Int64
	p.queued.Add(int64(n))
	// Indices never claimed (cancellation, panic abort) leave the queued
	// gauge high; settle the residue once every worker has stopped.
	defer func() { p.queued.Add(claimed.Load() - int64(n)) }()
	var mu sync.Mutex
	panics := make(map[int]*PanicError)
	runOne := func(i int) {
		p.inflight.Add(1)
		defer p.inflight.Add(-1)
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				panics[i] = &PanicError{
					Index: i,
					Label: fmt.Sprintf("task %d", i),
					Value: r,
					Stack: debug.Stack(),
				}
				mu.Unlock()
				aborted.Store(true)
			}
		}()
		f(i)
	}
	work := func() {
		for !aborted.Load() && ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			claimed.Add(1)
			p.queued.Add(-1)
			runOne(i)
		}
	}
	var wg sync.WaitGroup
	for spawned := 1; spawned < n && p.TryAcquire(); spawned++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer p.Release()
			work()
		}()
	}
	work()
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	// Lowest task index wins so the reported fault is deterministic.
	var first *PanicError
	firstIdx := -1
	for i, pe := range panics {
		if first == nil || i < firstIdx {
			first, firstIdx = pe, i
		}
	}
	if first != nil {
		return first
	}
	return nil
}
