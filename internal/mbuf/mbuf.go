// Package mbuf models the BSD network-buffer abstraction: reference-counted
// packet buffers drawn from a bounded pool.
//
// The pool bound matters to the reproduction: in 4.4BSD, aggregate traffic
// bursts "can exceed the IP queue limit and/or exhaust the mbuf pool",
// delaying or losing packets destined for other sockets. The pool keeps
// exact accounting so experiments can report whether drops happened for
// lack of mbufs (the paper's instrumentation reported none at their rates;
// ours can check the same).
//
// Both mbuf structs and their byte storage are recycled through per-pool
// free lists, so the steady-state packet cycle (alloc, enqueue, deliver,
// free) performs no heap allocation. Storage recycling distinguishes owned
// buffers (drawn from the pool's size-classed free lists by AllocBuf and
// AllocCopy) from aliased ones (Alloc wraps caller memory the pool must
// never hand out again). Recycling never changes the accounting: the
// counters (limit, in-use, high-water, failures) move at exactly the same
// points as when Free simply discarded the buffer.
package mbuf

import (
	"fmt"

	"lrp/internal/fifo"
)

// bufClasses are the recycled storage sizes, chosen to cover the common
// packet populations: small control packets, ordinary datagrams, and
// full-MTU packets (the IP-over-ATM MTU of 9180 plus headers fits the top
// class). Larger requests fall back to plain make and are not recycled.
var bufClasses = [...]int{256, 2048, 16384}

// classFor returns the index of the smallest class holding n bytes, or -1
// if n exceeds every class.
func classFor(n int) int {
	for i, c := range bufClasses {
		if n <= c {
			return i
		}
	}
	return -1
}

// Mbuf holds one packet (this simulator does not split packets across
// chained buffers; a chain field would add fidelity but no behaviour the
// experiments depend on). Data aliases the packet bytes; Len is the packet
// length.
type Mbuf struct {
	Data []byte

	// Arrival is the simulated time the packet was captured from the wire,
	// used to measure queueing delay. Zero when not applicable.
	Arrival int64

	// pool is non-nil while the mbuf is counted against its pool's limit;
	// Free and BeginTransfer clear it when they release the accounting.
	pool *Pool
	// owner is the recycling home for the struct and any owned storage. It
	// stays set through a wire transfer, after pool has been released.
	owner *Pool
	// buf is the owned backing array (full capacity), nil when Data aliases
	// caller memory. Only owned arrays return to the free lists.
	buf []byte
	// refs counts extra wire references beyond the first (multicast fanout);
	// EndTransfer recycles storage only when it reaches zero.
	refs int32
}

// Len returns the packet length in bytes.
func (m *Mbuf) Len() int { return len(m.Data) }

// Free returns the buffer to its pool. Freeing a nil mbuf or one not drawn
// from a pool is a no-op. Double frees panic: they indicate a logic error
// in queue handling.
//
// Free recycles the struct and any owned storage, so the caller must not
// touch the mbuf — or any Data slice it did not Detach — afterwards.
//
//lrp:hotpath
func (m *Mbuf) Free() {
	if m == nil || m.pool == nil {
		return
	}
	p := m.pool
	m.pool = nil
	p.inUse--
	if p.inUse < 0 {
		panic("mbuf: double free")
	}
	m.owner.recycle(m)
}

// Detach surrenders the packet bytes to the caller: it returns Data and
// disowns the backing array so a later Free recycles only the struct. Use
// it when delivered data outlives the mbuf (e.g. bytes handed to an
// application datagram).
//
//lrp:hotpath
func (m *Mbuf) Detach() []byte {
	b := m.Data
	m.buf = nil
	return b
}

// BeginTransfer releases the mbuf's pool accounting — exactly as Free does,
// including the double-free check — while keeping the struct and storage
// alive for wire transit. The sender's pool slot is released when
// transmission starts (as in the pre-recycling code, which freed the mbuf
// and kept a reference to its bytes); the storage itself is recycled by
// EndTransfer once the last receiver has copied the packet.
//
//lrp:hotpath
func (m *Mbuf) BeginTransfer() {
	if m == nil || m.pool == nil {
		return
	}
	p := m.pool
	m.pool = nil
	p.inUse--
	if p.inUse < 0 {
		panic("mbuf: double free")
	}
}

// AddRef adds one wire reference, for fanout paths that deliver the same
// mbuf to several receivers. Each reference must be released with
// EndTransfer.
//
//lrp:hotpath
func (m *Mbuf) AddRef() { m.refs++ }

// EndTransfer releases one wire reference; the final release recycles the
// struct and storage. The accounting was already released by BeginTransfer.
//
//lrp:hotpath
func (m *Mbuf) EndTransfer() {
	if m == nil {
		return
	}
	if m.refs > 0 {
		m.refs--
		return
	}
	m.owner.recycle(m)
}

// Stats is a snapshot of pool counters.
type Stats struct {
	Allocs    uint64 // successful allocations
	Failures  uint64 // allocations denied because the pool was exhausted
	InUse     int    // buffers currently outstanding
	Limit     int    // pool capacity
	HighWater int    // maximum simultaneous buffers in use
}

// Pool is a bounded mbuf allocator. The zero value is unusable; call
// NewPool. Pools are not safe for concurrent use; the simulation is single
// threaded by construction.
type Pool struct {
	limit     int
	pressure  int // buffers withheld by fault injection (transient pool pressure)
	inUse     int
	highWater int
	allocs    uint64
	failures  uint64

	freeM   []*Mbuf                   // recycled structs
	freeBuf [len(bufClasses)][][]byte // recycled storage, by size class
}

// NewPool returns a pool that allows up to limit buffers outstanding.
// limit <= 0 means unlimited.
func NewPool(limit int) *Pool {
	return &Pool{limit: limit}
}

// SetPressure withholds n buffers from a bounded pool, shrinking the
// effective limit to limit-n (floored at 1) until the pressure is lifted
// with SetPressure(0). Fault injection uses it to model transient
// external demand on the shared mbuf pool — the paper's "aggregate
// traffic bursts ... exhaust the mbuf pool" failure mode — without
// circulating real packets. Unbounded pools ignore pressure. Buffers
// already outstanding are unaffected; only new reservations see the
// reduced limit, exactly as real exhaustion behaves.
func (p *Pool) SetPressure(n int) {
	if n < 0 {
		n = 0
	}
	p.pressure = n
}

// reserve performs the bounded-accounting half of every allocation. It
// must stay byte-for-byte equivalent to the original Alloc counters: the
// experiments assert on high-water and failure values. (Pressure is
// zero outside fault-injection runs, leaving the legacy comparison
// untouched.)
//
//lrp:hotpath
func (p *Pool) reserve() bool {
	limit := p.limit
	if p.pressure > 0 && limit > 0 {
		if limit -= p.pressure; limit < 1 {
			limit = 1
		}
	}
	if limit > 0 && p.inUse >= limit {
		p.failures++
		return false
	}
	p.inUse++
	if p.inUse > p.highWater {
		p.highWater = p.inUse
	}
	p.allocs++
	return true
}

// getMbuf returns a recycled struct or a fresh one.
//
//lrp:hotpath
func (p *Pool) getMbuf() *Mbuf {
	if n := len(p.freeM); n > 0 {
		m := p.freeM[n-1]
		p.freeM[n-1] = nil
		p.freeM = p.freeM[:n-1]
		m.pool = p
		m.owner = p
		return m
	}
	return &Mbuf{pool: p, owner: p} //lrp:coldalloc free-list miss; steady state pops the list
}

// getBuf returns an owned array with capacity >= n: recycled when the size
// class has one, freshly allocated otherwise. Oversize requests get an
// exact-size array that will not be recycled.
//
//lrp:hotpath
func (p *Pool) getBuf(n int) []byte {
	ci := classFor(n)
	if ci < 0 {
		return make([]byte, n) //lrp:coldalloc oversize request; deliberately not recycled
	}
	if fn := len(p.freeBuf[ci]); fn > 0 {
		b := p.freeBuf[ci][fn-1]
		p.freeBuf[ci][fn-1] = nil
		p.freeBuf[ci] = p.freeBuf[ci][:fn-1]
		return b
	}
	return make([]byte, bufClasses[ci]) //lrp:coldalloc size-class miss; steady state pops the class list
}

// putBuf returns an owned array to its size class. Arrays whose capacity is
// not exactly a class size (oversize fallbacks) are dropped for the GC.
//
//lrp:hotpath
func (p *Pool) putBuf(b []byte) {
	c := cap(b)
	for i, cs := range bufClasses {
		if c == cs {
			p.freeBuf[i] = append(p.freeBuf[i], b[:c]) //lrp:coldalloc class list grows to high-water, then stabilizes
			return
		}
	}
}

// recycle returns a released mbuf's storage and struct to the free lists.
//
//lrp:hotpath
func (p *Pool) recycle(m *Mbuf) {
	if m.buf != nil {
		p.putBuf(m.buf)
		m.buf = nil
	}
	m.Data = nil
	m.Arrival = 0
	m.refs = 0
	m.pool = nil
	m.owner = nil
	p.freeM = append(p.freeM, m) //lrp:coldalloc struct list grows to high-water, then stabilizes
}

// Alloc returns a buffer holding data (which the mbuf aliases; the caller
// must not reuse it), or nil if the pool is exhausted. The aliased array is
// never recycled — it belongs to the caller.
//
//lrp:hotpath
func (p *Pool) Alloc(data []byte) *Mbuf {
	if !p.reserve() {
		return nil
	}
	m := p.getMbuf()
	m.Data = data
	return m
}

// AllocCopy returns a buffer holding a private copy of b, or nil if the
// pool is exhausted. The copy lives in pool-owned storage, so the caller
// may reuse or recycle b immediately. Data's capacity is clipped to its
// length: appending to it never scribbles on the recycled spare capacity.
//
//lrp:hotpath
func (p *Pool) AllocCopy(b []byte) *Mbuf {
	if !p.reserve() {
		return nil
	}
	m := p.getMbuf()
	m.buf = p.getBuf(len(b))
	m.Data = m.buf[:len(b):len(b)]
	copy(m.Data, b)
	return m
}

// AllocBuf returns an empty mbuf backed by owned storage with capacity at
// least n, for building a packet in place with the pkt append builders:
//
//	m := pool.AllocBuf(pkt.UDPTotalLen(len(payload)))
//	m.Data = pkt.AppendUDP(m.Data, ...)
//
// Staying within n keeps the build allocation-free; exceeding it makes
// append fall back to a fresh array (correct, but a new allocation).
//
//lrp:hotpath
func (p *Pool) AllocBuf(n int) *Mbuf {
	if !p.reserve() {
		return nil
	}
	m := p.getMbuf()
	m.buf = p.getBuf(n)
	m.Data = m.buf[:0]
	return m
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Allocs:    p.allocs,
		Failures:  p.failures,
		InUse:     p.inUse,
		Limit:     p.limit,
		HighWater: p.highWater,
	}
}

// String summarizes the pool state for logs.
func (p *Pool) String() string {
	return fmt.Sprintf("mbuf pool: %d/%d in use (hw %d, %d allocs, %d failures)",
		p.inUse, p.limit, p.highWater, p.allocs, p.failures)
}

// Queue is a bounded FIFO of mbufs — the NIC receive rings, interface
// queues and NI channel queues: a fifo.Queue (Limit 0 means unbounded)
// that frees a packet it refuses.
type Queue struct {
	fifo.Queue[*Mbuf]
}

// NewQueue returns a queue bounded at limit packets (0 = unbounded).
func NewQueue(limit int) *Queue { return &Queue{fifo.Queue[*Mbuf]{Limit: limit}} }

// Enqueue appends m, or frees it and returns false if the queue is full.
// (Callers that must not free on failure should test Full first.)
//
//lrp:hotpath
func (q *Queue) Enqueue(m *Mbuf) bool {
	if !q.Queue.Enqueue(m) {
		m.Free()
		return false
	}
	return true
}

// Dequeue removes and returns the head packet, or nil if empty.
//
//lrp:hotpath
func (q *Queue) Dequeue() *Mbuf {
	m, _ := q.Queue.Dequeue()
	return m
}

// Peek returns the head packet without removing it, or nil if empty.
//
//lrp:hotpath
func (q *Queue) Peek() *Mbuf {
	if f := q.Front(); f != nil {
		return *f
	}
	return nil
}

// Flush frees all queued packets and empties the queue.
func (q *Queue) Flush() {
	for q.Len() > 0 {
		q.Dequeue().Free()
	}
}
