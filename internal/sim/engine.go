// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock measured in integer microseconds and
// a pending-event set ordered by (time, sequence number): events scheduled
// for the same time fire in the order they were scheduled (FIFO
// tie-breaking), which keeps whole-system runs deterministic and
// reproducible.
//
// Internally the pending set is a two-tier scheduler rather than one global
// priority heap (see wheel.go and lane.go):
//
//   - a hierarchical timer wheel — numTiers tiers of tierSlots power-of-two
//     slot buckets — holds future-dated events with O(1) amortized insert
//     and expire; an overflow 4-ary heap holds the rare event beyond the
//     wheel's span and cascades back into the wheel as the cursor advances;
//   - per-source FIFO lanes (Lane) hold the dominant near-term traffic —
//     NIC ring drain, kernel burst chains, link serialization — where each
//     producer's posts are already in time order, so insertion is a plain
//     list append with no sifting at all;
//   - a tiny top-level merge (peek) picks the global minimum across the
//     lanes, the wheel and the overflow heap by exact (when, seq) compare,
//     preserving the engine's total order bit-for-bit.
//
// All higher layers of the LRP reproduction — the simulated kernel, NICs,
// links, protocols and applications — advance time exclusively through this
// engine. Nothing in the repository reads the wall clock.
//
// Scheduling is allocation-free in steady state: fired and cancelled events
// return to a per-engine free list and are reused by later At/After calls.
// A generation counter in each pooled event makes stale handles harmless —
// cancelling an event that already fired is a no-op even after its storage
// has been reused for an unrelated event.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in simulated time, in microseconds since the start of the
// run. Durations are expressed as plain int64 microsecond counts.
type Time = int64

// Common durations, in microseconds.
const (
	Microsecond int64 = 1
	Millisecond int64 = 1000
	Second      int64 = 1000 * 1000
)

// MaxTime is the largest representable simulated time. It is used as a
// sentinel "never" deadline.
const MaxTime Time = math.MaxInt64

// event is the pooled representation of one scheduled callback. Storage is
// reused across schedulings; gen distinguishes incarnations. An event is
// resident in exactly one place while pending: a wheel bucket or lane
// (list != nil) or the overflow heap (idx >= 0).
type event struct {
	when Time
	seq  uint64
	gen  uint64
	idx  int // overflow-heap index; -1 when not heap-resident
	fn   func()

	// Intrusive doubly-linked membership in a wheel bucket or lane, so
	// cancellation unlinks in O(1) without searching.
	list       *evList
	prev, next *event
}

// Event is a handle to a scheduled callback, returned by the scheduling
// methods so callers can cancel it before it fires. The zero Event is valid
// and behaves like an event that has already been cancelled. Handles stay
// safe after the event fires: the generation counter they carry no longer
// matches the pooled storage, so Cancel and Active degrade to no-ops even
// if the storage now backs a different event.
type Event struct {
	e    *event
	gen  uint64
	when Time
}

// When returns the time at which the event is (or was) scheduled to fire.
func (ev Event) When() Time { return ev.when }

// Active reports whether the event is still pending: scheduled, not yet
// fired, and not cancelled.
func (ev Event) Active() bool {
	return ev.e != nil && ev.e.gen == ev.gen && (ev.e.idx >= 0 || ev.e.list != nil)
}

// Cancelled reports whether the event has fired or been cancelled.
func (ev Event) Cancelled() bool { return !ev.Active() }

// IsZero reports whether ev is the zero handle, i.e. no event was ever
// scheduled into it. Holders that use "a handle is stored" as state (as the
// kernel does for its open burst) must test IsZero, not Active: a fired
// event's handle is stale but still records that a burst was opened.
func (ev Event) IsZero() bool { return ev.e == nil }

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now  Time
	seq  uint64
	free []*event // retired events awaiting reuse

	// The pending set: hierarchical timer wheel + overflow heap (wheel.go)
	// and per-source FIFO lanes (lane.go).
	wpos      Time // wheel cursor: every wheel-resident event has when >= wpos
	tiers     [numTiers][tierSlots]evList
	bitmap    [numTiers][tierSlots / 64]uint64 // occupancy, one bit per slot
	tierCount [numTiers]int                    // events resident per tier
	tierMask  uint8                            // bit t set iff tierCount[t] > 0
	overflow  eventHeap                        // beyond wheel span, or behind the cursor
	lanes     []*Lane                          // registry of every lane created on this engine
	laneHot   []laneSlot                       // active lanes, unsorted dense array of head keys
	laneHeap  []laneSlot                       // spill beyond laneHotMax: 4-ary heap by head key

	// peeked caches the winner of the last merge; nil means unknown. It is
	// invalidated by firing, by cancelling the cached event, and by any
	// insert that orders before it.
	peeked *event

	live    int // pending events across all structures
	stopped bool

	// processed counts events that have fired, for diagnostics and for the
	// runaway-loop guard in RunUntil.
	processed uint64
}

// NewEngine returns an engine with the clock at zero and an empty queue.
func NewEngine() *Engine {
	e := &Engine{}
	for t := range e.tiers {
		for s := range e.tiers[t] {
			l := &e.tiers[t][s]
			l.tier, l.slot = int32(t), int32(s)
		}
	}
	return e
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events that have fired so far.
func (e *Engine) Processed() uint64 { return e.processed }

// alloc takes an event from the free list (or allocates on a miss) and
// stamps it with the next sequence number. Every pending event gets exactly
// one sequence number, in scheduling-call order — this is the FIFO
// tie-break that fixes the engine's total order.
//
//lrp:hotpath
func (e *Engine) alloc(t Time, fn func()) *event {
	var ev *event
	if n := len(e.free); n > 0 {
		// The stale pointer left beyond len keeps at most one pooled (and
		// immortal anyway) event reachable; not nil-ing it skips a write
		// barrier per schedule.
		ev = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		ev = &event{idx: -1} //lrp:coldalloc free-list miss; steady state pops the list
	}
	ev.when = t
	ev.seq = e.seq
	ev.fn = fn
	e.seq++
	return ev
}

// At schedules fn to run at absolute time t. Scheduling in the past (t <
// Now) panics: it always indicates a logic error in a simulation layer.
//
//lrp:hotpath
func (e *Engine) At(t Time, fn func()) Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	ev := e.alloc(t, fn)
	e.place(ev)
	e.live++
	if p := e.peeked; p != nil && t < p.when {
		// The new event beats the cached winner, so it beats everything.
		e.peeked = ev
	}
	return Event{e: ev, gen: ev.gen, when: t}
}

// After schedules fn to run d microseconds from now. A non-positive d runs
// the event at the current time, after any already-queued events for this
// instant.
//
//lrp:hotpath
func (e *Engine) After(d int64, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Post is one entry of a PostBatch call.
type Post struct {
	At Time
	Fn func()
}

// PostBatch schedules a batch of events whose times are non-decreasing,
// amortizing queue placement across the batch: consecutive entries for the
// same instant append to the bucket located for the first of them, so a
// burst of k same-time events costs one placement, not k. Times before Now
// or out of order panic. Entries receive consecutive sequence numbers in
// slice order, exactly as k separate At calls would, so batching never
// changes the firing order. No handles are returned: batched events cannot
// be individually cancelled.
//
//lrp:hotpath
func (e *Engine) PostBatch(posts []Post) {
	var bucket *evList
	var first *event
	var when Time
	for i := range posts {
		p := &posts[i]
		if p.At < e.now {
			panic(fmt.Sprintf("sim: scheduling event at %d before now %d", p.At, e.now))
		}
		if i > 0 && p.At < when {
			panic(fmt.Sprintf("sim: PostBatch times out of order (%d after %d)", p.At, when))
		}
		ev := e.alloc(p.At, p.Fn)
		if i == 0 {
			first = ev
		}
		if bucket != nil && p.At == when {
			e.bucketAppend(bucket, ev)
		} else {
			bucket = e.place(ev)
			when = p.At
		}
		e.live++
	}
	if p := e.peeked; p != nil && first != nil && first.when < p.when {
		// The batch head beats the cached winner, so it beats everything.
		e.peeked = first
	}
}

// Cancel removes a pending event from the queue. Cancelling a zero handle,
// or one whose event has already fired or been cancelled, is a no-op, so
// callers may cancel unconditionally. Cancellation is eager — the event's
// storage returns to the free list immediately — so cancel-heavy workloads
// (kernel burst preemption, request timeouts) stay allocation-free.
//
//lrp:hotpath
func (e *Engine) Cancel(ev Event) {
	if !ev.Active() {
		return
	}
	x := ev.e
	if e.peeked == x {
		e.peeked = nil
	}
	if x.idx >= 0 {
		e.overflow.remove(x.idx)
	} else {
		l := x.list
		wasHead := l.head == x
		l.unlink(x)
		if l.tier >= 0 {
			e.tierDec(l.tier)
			if l.head == nil {
				e.bitmap[l.tier][l.slot>>6] &^= 1 << uint(l.slot&63)
			}
		} else if lane := l.lane; l.head == nil {
			e.laneDrained(lane)
		} else if wasHead {
			e.laneHeadChanged(lane, l.head)
		}
	}
	e.live--
	e.retire(x)
}

// retire returns a fired or cancelled event to the free list, bumping its
// generation so outstanding handles go stale. This is the single point
// that clears an event's links: unlink and the heap's pop/remove leave
// the detached event's fields stale to save duplicate write barriers
// (idx is already -1 for every non-heap resident and is reset by every
// heap removal).
//
//lrp:hotpath
func (e *Engine) retire(ev *event) {
	ev.list = nil
	ev.prev, ev.next = nil, nil
	ev.fn = nil
	ev.gen++
	e.free = append(e.free, ev) //lrp:coldalloc free list grows to high-water, then stabilizes
}

// Step fires the next event, advancing the clock to its timestamp. It
// returns false if the queue is empty or the engine has been stopped.
//
//lrp:hotpath
func (e *Engine) Step() bool {
	if e.stopped {
		return false
	}
	ev := e.peek()
	if ev == nil {
		return false
	}
	if hint := e.unscheduleHead(ev); hint != nil {
		// The fired event's tier-0 bucket still has members (same instant,
		// next seq): the next winner is a 2-way compare, no scan needed.
		if lr := e.laneRoot(); lr != nil && less(lr, hint) {
			hint = lr
		}
		if r := e.overflow.root(); r != nil && less(r, hint) {
			hint = r
		}
		e.peeked = hint
	} else {
		e.peeked = nil
	}
	e.now = ev.when
	if ev.when > e.wpos {
		e.advance(ev.when)
	}
	fn := ev.fn
	e.retire(ev)
	e.live--
	e.processed++
	fn()
	return true
}

// tierDec decrements a tier's census, clearing its occupancy bit in the
// tier mask on the last resident.
//
//lrp:hotpath
func (e *Engine) tierDec(t int32) {
	e.tierCount[t]--
	if e.tierCount[t] == 0 {
		e.tierMask &^= 1 << uint(t)
	}
}

// unscheduleHead detaches the merge winner from whichever structure holds
// it. The winner is a lane head, the overflow-heap root, or a wheel-bucket
// member — a tier-0 head when peek derived it, but possibly a tier >= 1
// resident when the At/Post/PostBatch fast path cached a fresh insert that
// beat the previous winner. Only a surviving tier-0 bucket yields a hint:
// its members all share one instant and append in seq order, so the new
// head is still the exact wheel minimum. Tier >= 1 bucket lists are
// append-ordered, not time-ordered, so firing out of one must return nil
// and let the next peek re-derive the minimum through the cascade loop.
//
//lrp:hotpath
func (e *Engine) unscheduleHead(ev *event) (wheelHint *event) {
	if ev.idx >= 0 {
		e.overflow.pop()
		return nil
	}
	l := ev.list
	l.unlink(ev)
	if l.tier >= 0 {
		e.tierDec(l.tier)
		if l.head == nil {
			e.bitmap[l.tier][l.slot>>6] &^= 1 << uint(l.slot&63)
		} else if l.tier == 0 {
			return l.head
		}
		return nil
	}
	if l.head != nil {
		e.laneHeadChanged(l.lane, l.head)
	} else {
		e.laneDrained(l.lane)
	}
	return nil
}

// Run fires events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with timestamps <= deadline, then advances the clock
// to the deadline. Events scheduled exactly at the deadline fire. It returns
// the number of events processed.
func (e *Engine) RunUntil(deadline Time) uint64 {
	start := e.processed
	for !e.stopped {
		if ev := e.peek(); ev == nil || ev.when > deadline {
			break
		}
		e.Step()
	}
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
	return e.processed - start
}

// RunFor advances the simulation by d microseconds from the current time.
func (e *Engine) RunFor(d int64) uint64 {
	return e.RunUntil(e.now + d)
}

// Stop halts the engine: no further events fire from Run/RunUntil/Step.
// Pending events remain queued.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// Pending returns the number of events currently queued.
func (e *Engine) Pending() int { return e.live }

// NextEventTime returns the timestamp of the earliest queued event, or
// MaxTime if the queue is empty. Locating the minimum may cascade wheel
// buckets toward tier 0 (a semantics-preserving internal reshuffle).
func (e *Engine) NextEventTime() Time {
	if ev := e.peek(); ev != nil {
		return ev.when
	}
	return MaxTime
}

// eventHeap is an inlined 4-ary min-heap ordered by (when, seq), used for
// the overflow tier: events beyond the wheel's span, or (rarely) scheduled
// behind the wheel cursor after a speculative cascade. A 4-ary layout
// halves tree depth versus binary, and the inlined sift loops avoid
// container/heap's interface boxing on every operation — the reason
// scheduling used to allocate.
type eventHeap struct {
	a []*event
}

func (h *eventHeap) len() int { return len(h.a) }

// root returns the minimum event without removing it, or nil when empty.
func (h *eventHeap) root() *event {
	if len(h.a) == 0 {
		return nil
	}
	return h.a[0]
}

// less orders events by firing time, FIFO within the same instant.
func less(x, y *event) bool {
	if x.when != y.when {
		return x.when < y.when
	}
	return x.seq < y.seq
}

// push inserts ev, sifting it up to its (when, seq) position.
//
//lrp:hotpath
func (h *eventHeap) push(ev *event) {
	ev.idx = len(h.a)
	h.a = append(h.a, ev) //lrp:coldalloc heap array grows to high-water, then stabilizes
	h.up(ev.idx)
}

// pop removes and returns the minimum event.
//
//lrp:hotpath
func (h *eventHeap) pop() *event {
	ev := h.a[0]
	n := len(h.a) - 1
	h.a[0] = h.a[n]
	h.a[0].idx = 0
	h.a[n] = nil
	h.a = h.a[:n]
	if n > 0 {
		h.down(0)
	}
	ev.idx = -1
	return ev
}

// remove deletes the event at heap index i.
//
//lrp:hotpath
func (h *eventHeap) remove(i int) {
	n := len(h.a) - 1
	ev := h.a[i]
	if i != n {
		h.a[i] = h.a[n]
		h.a[i].idx = i
	}
	h.a[n] = nil
	h.a = h.a[:n]
	if i < n {
		h.down(i)
		h.up(i)
	}
	ev.idx = -1
}

// up sifts the event at index i toward the root.
//
//lrp:hotpath
func (h *eventHeap) up(i int) {
	ev := h.a[i]
	for i > 0 {
		parent := (i - 1) / 4
		p := h.a[parent]
		if !less(ev, p) {
			break
		}
		h.a[i] = p
		p.idx = i
		i = parent
	}
	h.a[i] = ev
	ev.idx = i
}

// down sifts the event at index i toward the leaves.
//
//lrp:hotpath
func (h *eventHeap) down(i int) {
	ev := h.a[i]
	n := len(h.a)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if less(h.a[c], h.a[min]) {
				min = c
			}
		}
		if !less(h.a[min], ev) {
			break
		}
		h.a[i] = h.a[min]
		h.a[i].idx = i
		i = min
	}
	h.a[i] = ev
	ev.idx = i
}
