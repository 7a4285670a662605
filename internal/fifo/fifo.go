// Package fifo holds the simulator's one first-in, first-out queue: a
// generic ring that every queue in the model is built on — the NIC rings
// and embedded-processor backlog, the mbuf and socket queues, the
// kernel's interrupt queues, and the records of deferred receive work.
//
// The ring doubles when full and keeps its capacity when it drains, so a
// queue that fills and empties repeatedly touches no allocator once it
// has reached its high-water mark: growth is its only allocation. The
// paper's demultiplexing function must run with "no dynamic memory
// allocation"; the queues it feeds must not allocate either.
package fifo

// Queue is a FIFO of T, optionally bounded. The zero value is an empty,
// unbounded queue ready to use. Dequeued slots are zeroed, so the ring
// keeps no reference to an item that has left it.
type Queue[T any] struct {
	// Limit bounds the queue at Limit items; 0 means unbounded. Enqueue
	// refuses an item beyond it and counts a drop.
	Limit int

	ring  []T
	head  int
	count int
	drops uint64
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.count }

// Cap returns the number of slots the ring holds (queued or free).
func (q *Queue[T]) Cap() int { return len(q.ring) }

// Full reports whether an Enqueue would be refused.
func (q *Queue[T]) Full() bool { return q.Limit > 0 && q.count >= q.Limit }

// Drops returns the number of items refused because the queue was full.
func (q *Queue[T]) Drops() uint64 { return q.drops }

// Enqueue appends v at the tail. It reports false, and counts a drop, if
// the queue is full.
//
//lrp:hotpath
func (q *Queue[T]) Enqueue(v T) bool {
	if q.Full() {
		q.drops++
		return false
	}
	if q.count == len(q.ring) {
		q.grow()
	}
	q.ring[(q.head+q.count)&(len(q.ring)-1)] = v
	q.count++
	return true
}

// Dequeue removes and returns the head item; ok is false when the queue
// is empty.
//
//lrp:hotpath
func (q *Queue[T]) Dequeue() (v T, ok bool) {
	if q.count == 0 {
		return v, false
	}
	v = q.ring[q.head]
	var zero T
	q.ring[q.head] = zero
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.count--
	return v, true
}

// Front returns a pointer to the head item, or nil when the queue is
// empty. The pointer stays valid until the next Dequeue, which retires
// the slot, or the next Enqueue, which may grow the ring and move every
// item: fetch it afresh after either.
//
//lrp:hotpath
func (q *Queue[T]) Front() *T {
	if q.count == 0 {
		return nil
	}
	return &q.ring[q.head]
}

// grow doubles a full ring (8 slots at first), unwrapping the live items
// to the front. The ring's length is always a power of two, so an index
// wraps with a mask.
//
//lrp:coldalloc amortized geometric growth: at most log2(peak) allocations per queue lifetime
func (q *Queue[T]) grow() {
	ring := make([]T, max(2*len(q.ring), 8))
	n := copy(ring, q.ring[q.head:])
	copy(ring[n:], q.ring[:q.head])
	q.ring = ring
	q.head = 0
}
