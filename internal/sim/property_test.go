package sim

import (
	"container/heap"
	"fmt"
	"math"
	"testing"
)

// This file checks the engine (timer wheel + overflow heap) against a
// reference engine that reproduces the old implementation: one global
// priority heap ordered by (when, seq). The same seeded randomized program
// — schedules, same-instant bursts, per-source monotone streams, cancels,
// cancel-then-rearm, far-future events beyond the wheel span, look-aheads
// that move the wheel cursor past Now, RunUntil deadlines, and nested
// scheduling from inside callbacks — runs against both, and the firing
// traces must be identical down to tie order.

// refEvent is one pending entry of the reference engine.
type refEvent struct {
	when      int64
	seq       uint64
	fn        func()
	cancelled bool
	idx       int
}

// refHeap is a plain container/heap min-heap by (when, seq) — deliberately
// the dumbest correct implementation of the engine's total order.
type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *refHeap) Push(x any) {
	ev := x.(*refEvent)
	ev.idx = len(*h)
	*h = append(*h, ev)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old) - 1
	ev := old[n]
	*h = old[:n]
	return ev
}

// refEngine is the single-global-heap scheduler the engine used before the
// timer wheel. Cancellation marks the entry and drops it at pop time,
// which leaves the fire order untouched.
type refEngine struct {
	now  int64
	seq  uint64
	h    refHeap
	live int
}

func (r *refEngine) at(t int64, fn func()) *refEvent {
	if t < r.now {
		panic("ref: schedule in the past")
	}
	ev := &refEvent{when: t, seq: r.seq, fn: fn}
	r.seq++
	heap.Push(&r.h, ev)
	r.live++
	return ev
}

func (r *refEngine) cancel(ev *refEvent) {
	if ev.cancelled || ev.fn == nil {
		return
	}
	ev.cancelled = true
	r.live--
}

// runUntil steps while the earliest live event is at or before deadline,
// then moves the clock to the deadline, returning the number fired.
func (r *refEngine) runUntil(deadline int64) uint64 {
	var n uint64
	for {
		for len(r.h) > 0 && r.h[0].cancelled {
			heap.Pop(&r.h)
		}
		if len(r.h) == 0 || r.h[0].when > deadline {
			break
		}
		r.step()
		n++
	}
	if r.now < deadline {
		r.now = deadline
	}
	return n
}

func (r *refEngine) step() bool {
	for len(r.h) > 0 {
		ev := heap.Pop(&r.h).(*refEvent)
		if ev.cancelled {
			continue
		}
		r.now = ev.when
		fn := ev.fn
		ev.fn = nil
		r.live--
		fn()
		return true
	}
	return false
}

// propSched is the common surface the randomized program drives; one
// adapter wraps the real engine, the other the reference. next is
// NextEventTime and runUntil is RunUntil: on the real engine both may
// advance the wheel cursor past Now, so interleaving them with later
// inserts exercises the behind-the-cursor overflow path.
type propSched interface {
	now() int64
	next() int64
	at(t int64, fn func()) (cancel func(), active func() bool)
	runUntil(deadline int64) uint64
	step() bool
	pending() int
}

type newSched struct {
	e *Engine
}

func (s *newSched) now() int64  { return s.e.Now() }
func (s *newSched) next() int64 { return s.e.NextEventTime() }
func (s *newSched) at(t int64, fn func()) (func(), func() bool) {
	h := s.e.At(t, fn)
	return func() { s.e.Cancel(h) }, h.Active
}
func (s *newSched) runUntil(deadline int64) uint64 { return s.e.RunUntil(deadline) }
func (s *newSched) step() bool                     { return s.e.Step() }
func (s *newSched) pending() int                   { return s.e.Pending() }

type refSched struct {
	e *refEngine
}

func (s *refSched) now() int64 { return s.e.now }
func (s *refSched) next() int64 {
	// Min over live entries; the heap root may be a cancelled tombstone.
	min := int64(math.MaxInt64)
	for _, ev := range s.e.h {
		if !ev.cancelled && ev.fn != nil && ev.when < min {
			min = ev.when
		}
	}
	return min
}
func (s *refSched) at(t int64, fn func()) (func(), func() bool) {
	ev := s.e.at(t, fn)
	return func() { s.e.cancel(ev) },
		func() bool { return !ev.cancelled && ev.fn != nil }
}
func (s *refSched) runUntil(deadline int64) uint64 { return s.e.runUntil(deadline) }
func (s *refSched) step() bool                     { return s.e.step() }
func (s *refSched) pending() int                   { return s.e.live }

// propSources is the number of per-source monotone event streams, the
// shape of the simulation's self-chained producers (a NIC's embedded
// processor, a link's serializer, a kernel's burst chain).
const propSources = 24

// propWorld runs the randomized program against one scheduler. Both worlds
// get same-seed RNGs; as long as the engines fire in the same order, every
// draw mirrors, so any trace divergence is an ordering bug in the engine
// under test, not in the harness.
type propWorld struct {
	s     propSched
	rng   *Rand
	trace []string

	// Live cancellable handles, as parallel slices (cancel, active).
	cancels []func()
	actives []func() bool

	// Per-source bookkeeping for the monotone streams: while a source has
	// pending events, its posts do not precede its tail; once it drains,
	// any time >= now is fair game again.
	srcPending [propSources]int
	srcTail    [propSources]int64

	nextID int
}

func (w *propWorld) record(id int) {
	w.trace = append(w.trace, fmt.Sprintf("t=%d id=%d", w.s.now(), id))
}

// fire builds the callback for event id: record, then maybe do nested work
// (more schedules, a cancel) using the world's RNG.
func (w *propWorld) fire(id, src int) func() {
	return func() {
		w.record(id)
		if src >= 0 {
			w.srcPending[src]--
		}
		// Nested scheduling: follow-ups with mean < 1 so cascades stay
		// finite (the outer loop keeps seeding new work anyway).
		n := 0
		switch w.rng.Int63n(8) {
		case 0:
			n = 2
		case 1, 2, 3:
			n = 1
		}
		for i := 0; i < n; i++ {
			w.scheduleOne(true)
		}
		if w.rng.Int63n(4) == 0 {
			w.cancelOne()
		}
	}
}

// scheduleOne issues one random scheduling op. nested marks calls made
// from inside a callback (they skip batches to keep recursion shallow).
func (w *propWorld) scheduleOne(nested bool) {
	id := w.nextID
	w.nextID++
	now := w.s.now()
	switch k := w.rng.Int63n(12); {
	case k < 4: // plain At, near-term (0 often: same-instant burst)
		d := w.rng.Int63n(50)
		c, a := w.s.at(now+d, w.fire(id, -1))
		w.cancels = append(w.cancels, c)
		w.actives = append(w.actives, a)
	case k < 7: // per-source monotone stream
		src := int(w.rng.Int63n(propSources))
		t := now + w.rng.Int63n(40)
		if w.srcPending[src] > 0 && t < w.srcTail[src] {
			t = w.srcTail[src]
		}
		w.post(src, t, id)
	case k < 8: // far future: overflow heap, multi-tier cascades
		d := 1 + w.rng.Int63n(int64(2)<<wheelBits)
		c, a := w.s.at(now+d, w.fire(id, -1))
		w.cancels = append(w.cancels, c)
		w.actives = append(w.actives, a)
	case k < 9 && !nested: // burst of 2–4 with non-decreasing times
		n := 2 + int(w.rng.Int63n(3))
		t := now + w.rng.Int63n(30)
		for i := 0; i < n; i++ {
			w.s.at(t, w.fire(w.nextID-1+i, -1))
			t += w.rng.Int63n(3) // repeats exercise the same-bucket append
		}
		w.nextID += n - 1
	case k < 10: // inserts behind an advanced cursor: park a far-future
		// event on a stream, look ahead via next() (which advances the
		// wheel cursor to the queue head when that head sits in a tier >= 1
		// bucket), then insert descending times. When the parked event was
		// the global minimum, every insert lands behind the cursor in the
		// overflow heap and must still fire in (when, seq) order against
		// the wheel. Decrements also exceed a tier-1 slot (256µs) across
		// the group, so the inserts span bucket boundaries.
		src := int(w.rng.Int63n(propSources))
		lt := now + 1200 + w.rng.Int63n(4000)
		if w.srcPending[src] > 0 && lt < w.srcTail[src] {
			lt = w.srcTail[src]
		}
		w.post(src, lt, id)
		nt := w.s.next()
		w.trace = append(w.trace, fmt.Sprintf("next@%d=%d", now, nt))
		d := 700 + w.rng.Int63n(400)
		if gap := nt - now; gap > 1200 && gap < int64(1)<<wheelBits {
			// The queue head is far out: start just below it so every
			// descending insert precedes it.
			d = gap - 1 - w.rng.Int63n(100)
		}
		for i := 0; ; i++ {
			id = w.nextID
			w.nextID++
			c, a := w.s.at(now+d, w.fire(id, -1))
			w.cancels = append(w.cancels, c)
			w.actives = append(w.actives, a)
			if i == 2 {
				break
			}
			d -= 100 + w.rng.Int63n(120)
		}
	default: // mid-range At, lands in a higher wheel tier
		d := 100 + w.rng.Int63n(100_000)
		c, a := w.s.at(now+d, w.fire(id, -1))
		w.cancels = append(w.cancels, c)
		w.actives = append(w.actives, a)
	}
}

// post schedules event id at t on monotone stream src.
func (w *propWorld) post(src int, t int64, id int) {
	w.s.at(t, w.fire(id, src))
	w.srcPending[src]++
	w.srcTail[src] = t
}

// cancelOne cancels a randomly chosen outstanding handle (possibly one
// that already fired — that must be a no-op).
func (w *propWorld) cancelOne() {
	if len(w.cancels) == 0 {
		return
	}
	i := int(w.rng.Int63n(int64(len(w.cancels))))
	w.trace = append(w.trace, fmt.Sprintf("cancel@%d active=%v", w.s.now(), w.actives[i]()))
	w.cancels[i]()
	n := len(w.cancels) - 1
	w.cancels[i] = w.cancels[n]
	w.actives[i] = w.actives[n]
	w.cancels = w.cancels[:n]
	w.actives = w.actives[:n]
}

// run executes the program: interleaved scheduling and stepping (one
// event, or RunUntil a random deadline), then a full drain.
func (w *propWorld) run(steps int) {
	for i := 0; i < steps; i++ {
		for w.rng.Int63n(2) == 0 {
			w.scheduleOne(false)
		}
		if w.rng.Int63n(6) == 0 {
			w.cancelOne()
		}
		if w.rng.Int63n(8) == 0 {
			now := w.s.now()
			deadline := now + w.rng.Int63n(2000)
			n := w.s.runUntil(deadline)
			w.trace = append(w.trace, fmt.Sprintf("until@%d=%d fired %d now %d", now, deadline, n, w.s.now()))
			continue
		}
		w.s.step()
	}
	for w.s.step() {
	}
	if w.s.pending() != 0 {
		w.trace = append(w.trace, fmt.Sprintf("PENDING LEFT: %d", w.s.pending()))
	}
}

func TestEngineMatchesGlobalHeapReference(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			wNew := &propWorld{s: &newSched{e: NewEngine()}, rng: NewRand(seed)}
			wRef := &propWorld{s: &refSched{e: &refEngine{}}, rng: NewRand(seed)}

			wNew.run(4000)
			wRef.run(4000)

			if len(wNew.trace) < 4000 {
				t.Fatalf("workload too small to mean anything: %d trace entries", len(wNew.trace))
			}
			if len(wNew.trace) != len(wRef.trace) {
				t.Fatalf("trace lengths differ: engine %d vs reference %d",
					len(wNew.trace), len(wRef.trace))
			}
			for i := range wNew.trace {
				if wNew.trace[i] != wRef.trace[i] {
					t.Fatalf("trace diverges at %d:\n  engine:    %s\n  reference: %s",
						i, wNew.trace[i], wRef.trace[i])
				}
			}
		})
	}
}
