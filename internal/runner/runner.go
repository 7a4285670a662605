// Package runner executes experiment sweeps over a bounded worker pool.
//
// Every experiment in this repository is a sweep over independent,
// deterministic, single-goroutine simulation worlds: a job builds its
// own sim.Engine, network and hosts, runs to completion, and returns a
// result that depends only on the job's inputs — never on wall-clock
// time or goroutine scheduling. Sweep points are therefore
// embarrassingly parallel, and this package exploits that: jobs run
// concurrently up to a worker bound, while results are always assembled
// in declaration order, so a parallel run is byte-identical to a serial
// one.
//
// The package is deliberately dependency-free (stdlib sync only) so it
// sits below internal/exp without cycles.
package runner

import "sync"

// Pool bounds how many jobs execute concurrently. A nil Pool, or one
// built with workers <= 1, runs jobs inline on the caller's goroutine.
type Pool struct {
	sem chan struct{}
}

// NewPool returns a pool that admits at most workers concurrent jobs.
// Values below 1 are treated as 1 (serial, inline execution).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{sem: make(chan struct{}, workers)}
}

// Workers reports the pool's concurrency bound.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return cap(p.sem)
}

// Map runs fn(i, items[i]) for every item, at most p.Workers() at a
// time, and returns the results in item order. With a serial pool the
// calls happen inline, in order; otherwise each call runs on its own
// goroutine and fn must not share mutable state across calls. A panic
// in any job is re-raised on the caller's goroutine after all jobs
// have drained.
//
// Even a single-item Map goes through the pool: when several sweeps
// share one pool (suite-wide scheduling, see exp.RunSuite), the worker
// bound must cover every simulation world, not just the multi-item
// sweeps. Slots are held only while a job runs — never across the final
// wait — so concurrent Map calls on a shared pool cannot deadlock.
func Map[T, R any](p *Pool, items []T, fn func(int, T) R) []R {
	out := make([]R, len(items))
	if p.Workers() <= 1 {
		for i, it := range items {
			out[i] = fn(i, it)
		}
		return out
	}
	var (
		wg         sync.WaitGroup
		panicOnce  sync.Once
		panicValue any
	)
	for i := range items {
		p.sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicValue = r })
				}
				<-p.sem
				wg.Done()
			}()
			out[i] = fn(i, items[i])
		}(i)
	}
	wg.Wait()
	if panicValue != nil {
		panic(panicValue)
	}
	return out
}

// Concurrent runs fn(i, items[i]) for every item on its own goroutine,
// unbounded, and returns the results in item order. A panic in any call
// is re-raised on the caller's goroutine after all calls have drained.
//
// It exists for coordinators — code that does no simulation work itself
// but fans out sweeps over a shared Pool (the suite runner launching
// experiment drivers). Coordinators must not occupy pool slots: a
// coordinator blocked inside a slot while its own sweep jobs wait for
// slots would deadlock the pool. Never use Concurrent for the
// simulation jobs themselves; that is what Map's bound is for.
func Concurrent[T, R any](items []T, fn func(int, T) R) []R {
	out := make([]R, len(items))
	if len(items) <= 1 {
		for i, it := range items {
			out[i] = fn(i, it)
		}
		return out
	}
	var (
		wg         sync.WaitGroup
		panicOnce  sync.Once
		panicValue any
	)
	for i := range items {
		wg.Add(1)
		go func(i int) {
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicValue = r })
				}
				wg.Done()
			}()
			out[i] = fn(i, items[i])
		}(i)
	}
	wg.Wait()
	if panicValue != nil {
		panic(panicValue)
	}
	return out
}

// Pair is one cell of a two-axis cross product.
type Pair[A, B any] struct {
	A A
	B B
}

// Cross enumerates the cross product of two axes in row-major order:
// as[0]×bs[0], as[0]×bs[1], …, as[1]×bs[0], … — the same order a
// serial nested loop would visit.
func Cross[A, B any](as []A, bs []B) []Pair[A, B] {
	out := make([]Pair[A, B], 0, len(as)*len(bs))
	for _, a := range as {
		for _, b := range bs {
			out = append(out, Pair[A, B]{A: a, B: b})
		}
	}
	return out
}

// Spec declares a sweep scenario: for every system and every point on
// the sweep axis, Run builds a fresh simulation world and returns one
// measurement. Specs carry no execution policy; the same Spec can run
// serially or across a pool with identical results.
type Spec[S, X, R any] struct {
	// Systems is the outer axis: the kernel configurations under test.
	Systems []S
	// Axis is the inner sweep axis (offered rates, SYN rates, …).
	Axis []X
	// Run measures one (system, point) cell in a private world.
	Run func(S, X) R
}

// Sweep executes the spec over the pool and returns one row per
// system, each holding that system's measurements in axis order.
func Sweep[S, X, R any](p *Pool, spec Spec[S, X, R]) [][]R {
	cells := Map(p, Cross(spec.Systems, spec.Axis), func(_ int, c Pair[S, X]) R {
		return spec.Run(c.A, c.B)
	})
	rows := make([][]R, len(spec.Systems))
	for i := range spec.Systems {
		rows[i] = cells[i*len(spec.Axis) : (i+1)*len(spec.Axis) : (i+1)*len(spec.Axis)]
	}
	return rows
}
