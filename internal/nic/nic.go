// Package nic models a network interface adaptor: a bounded receive ring
// with host-interrupt signalling, a transmit interface queue drained at
// link speed, an optional embedded processor (as on the FORE SBA-200's
// i960) that can run the LRP demultiplexing function on the adaptor, and
// the NI channel structure shared between the adaptor and the kernel.
//
// The NIC is policy-free: what happens when a packet is received — raise
// an interrupt per packet (BSD), demultiplex in the interrupt handler
// (soft demux), or demultiplex on the embedded processor (NI demux) — is
// wired up by the architecture layer via callbacks.
package nic

import (
	"lrp/internal/fifo"
	"lrp/internal/mbuf"
	"lrp/internal/sim"
)

// Mode selects where received packets go before the host sees them.
type Mode int

const (
	// ModeRaw delivers packets to the host receive ring and raises a host
	// interrupt; all demultiplexing happens on the host. Used by the BSD,
	// SOFT-LRP and Early-Demux configurations.
	ModeRaw Mode = iota
	// ModeSmart runs OnNICProcess for each packet on the embedded NIC
	// processor (after a per-packet processing delay) instead of touching
	// the host. Used by the NI-LRP configuration.
	ModeSmart
)

// Stats counts NIC-level events. The scalar fields are adaptor-wide
// aggregates with the same meanings they had when the adaptor modelled
// a single receive ring; Queues breaks the receive-side counters down
// per RSS queue (one entry per configured rx queue, in queue order).
type Stats struct {
	RxPackets    uint64 // packets received from the wire
	RxRingDrops  uint64 // packets lost to receive-ring overflow (ModeRaw)
	NICDrops     uint64 // packets dropped by the embedded processor's input queue
	TxPackets    uint64 // packets transmitted
	TxQueueDrops uint64 // packets lost to interface-queue overflow
	HostIntrs    uint64 // host interrupts raised
	FaultDrops   uint64 // packets discarded by an injected receive fault

	// Queues holds the per-receive-queue breakdown. RxRingDrops over
	// Queues sums to the aggregate; RxPackets over Queues counts the
	// packets steered to a ring (aggregate RxPackets minus fault drops
	// and ModeSmart traffic); HostIntrs over Queues counts ring-raised
	// interrupts (interrupts raised via RaiseIntr — for an NI channel or
	// an injected fault — belong to no ring and count only in the
	// aggregate).
	Queues []QueueStats
}

// QueueStats counts one receive queue's events (ModeRaw rings).
type QueueStats struct {
	RxPackets   uint64 // packets the RSS hash steered to this queue
	RxRingDrops uint64 // packets lost to this queue's ring overflow
	HostIntrs   uint64 // host interrupts raised by this queue's ring
}

// NIC is one simulated network adaptor.
type NIC struct {
	Eng  *sim.Engine
	Name string

	// Pool supplies receive buffers; exhaustion drops packets at the ring,
	// mirroring mbuf exhaustion in the host (ModeRaw) or on-board buffer
	// exhaustion (ModeSmart).
	Pool *mbuf.Pool

	// Mode selects the receive path.
	Mode Mode

	// OnHostIntr is invoked (in engine context) when the adaptor raises a
	// host interrupt through RaiseIntr — on behalf of the embedded
	// processor when a channel requests it (ModeSmart), or by an injected
	// fault — and, when OnQueueIntr is nil, on ring empty->nonempty
	// transitions in ModeRaw. The architecture layer typically posts
	// hardware-interrupt work to the kernel here.
	OnHostIntr func()

	// OnQueueIntr, when non-nil, carries every receive-ring interrupt and
	// identifies which queue raised the line, so the architecture layer
	// can route each queue's interrupt to its CPU. Core hosts install it
	// for every raw-ring architecture, whatever the queue count; with it
	// nil, ring interrupts go to OnHostIntr.
	OnQueueIntr func(q int)

	// OnNICProcess runs on the embedded processor for each received packet
	// in ModeSmart, after NICPerPktCost of adaptor CPU time. It should
	// classify the packet onto an NI channel (or drop it).
	OnNICProcess func(m *mbuf.Mbuf)

	// NICPerPktCost is the embedded processor's per-packet processing time
	// in microseconds (ModeSmart).
	NICPerPktCost int64

	// NICInputLimit bounds the embedded processor's input backlog; beyond
	// it packets are dropped on the adaptor, costing the host nothing.
	NICInputLimit int

	// RxFault, when non-nil, is consulted for every packet arriving from
	// the wire; returning true discards the packet before any buffer is
	// allocated, modelling adaptor-level receive faults (a DMA engine
	// overrunning its descriptor ring). Installed by the fault-injection
	// subsystem; nil outside fault runs.
	RxFault func() bool

	// Transmit is installed by the network layer; it serializes m onto the
	// wire and calls done when the link is free for the next packet. The
	// mbuf arrives with its accounting already released (BeginTransfer);
	// the network layer must EndTransfer it when the packet leaves the wire.
	Transmit func(m *mbuf.Mbuf, done func())

	rxq          []rxQueue
	intrDisabled bool

	// backlog holds the packets awaiting the embedded processor. The
	// processor serves packets serially, so completion times are
	// non-decreasing and completions fire in post order: the head is
	// always the packet being finished. nicStep is the single completion
	// thunk shared by every packet — a per-packet closure would allocate
	// per packet.
	backlog      fifo.Queue[*mbuf.Mbuf]
	nicBusyUntil sim.Time // when the embedded processor finishes its backlog
	nicStep      func()

	ifq    *mbuf.Queue
	txBusy bool
	// txDoneFn is txDone bound once, so each transmit hands Transmit the
	// same func value instead of allocating a method value.
	txDoneFn func()

	stats Stats
}

// rxQueue is one receive ring plus its interrupt line state.
type rxQueue struct {
	ring        *mbuf.Queue
	intrPending bool
	stats       QueueStats
}

// Config bundles NIC construction parameters.
type Config struct {
	Name          string
	Mode          Mode
	RxRingSize    int // ModeRaw ring slots per queue (0 = 64)
	RxQueues      int // receive queues the RSS hash spreads over (0 = 1)
	IfqLimit      int // interface queue limit (0 = 50, the BSD default)
	Pool          *mbuf.Pool
	NICPerPktCost int64
	NICInputLimit int
}

// New creates a NIC.
func New(eng *sim.Engine, cfg Config) *NIC {
	if cfg.RxRingSize == 0 {
		cfg.RxRingSize = 64
	}
	if cfg.IfqLimit == 0 {
		cfg.IfqLimit = 50
	}
	if cfg.Pool == nil {
		cfg.Pool = mbuf.NewPool(0)
	}
	if cfg.NICInputLimit == 0 {
		cfg.NICInputLimit = 256
	}
	if cfg.RxQueues == 0 {
		cfg.RxQueues = 1
	}
	n := &NIC{
		Eng:           eng,
		Name:          cfg.Name,
		Pool:          cfg.Pool,
		Mode:          cfg.Mode,
		NICPerPktCost: cfg.NICPerPktCost,
		NICInputLimit: cfg.NICInputLimit,
		rxq:           make([]rxQueue, cfg.RxQueues),
		ifq:           mbuf.NewQueue(cfg.IfqLimit),
	}
	for i := range n.rxq {
		n.rxq[i].ring = mbuf.NewQueue(cfg.RxRingSize)
	}
	n.txDoneFn = n.txDone
	n.nicStep = func() {
		m, _ := n.backlog.Dequeue()
		if n.OnNICProcess != nil {
			n.OnNICProcess(m)
		} else {
			m.Free()
		}
	}
	return n
}

// NumRxQueues returns the number of configured receive queues.
func (n *NIC) NumRxQueues() int { return len(n.rxq) }

// Stats returns a snapshot of the NIC counters, folding in queue drops.
func (n *NIC) Stats() Stats {
	s := n.stats
	s.Queues = make([]QueueStats, len(n.rxq))
	for i := range n.rxq {
		qs := n.rxq[i].stats
		qs.RxRingDrops += n.rxq[i].ring.Drops()
		s.Queues[i] = qs
		s.RxRingDrops += n.rxq[i].ring.Drops()
	}
	s.TxQueueDrops += n.ifq.Drops()
	return s
}

// Rx accepts a packet from the wire (engine context).
func (n *NIC) Rx(b []byte) {
	n.stats.RxPackets++
	if n.RxFault != nil && n.RxFault() {
		n.stats.FaultDrops++
		return
	}
	switch n.Mode {
	case ModeRaw:
		q := 0
		if len(n.rxq) > 1 {
			q = int(FlowHash(b) % uint32(len(n.rxq)))
		}
		rq := &n.rxq[q]
		rq.stats.RxPackets++
		m := n.Pool.AllocCopy(b)
		if m == nil {
			n.stats.RxRingDrops++
			rq.stats.RxRingDrops++
			return
		}
		m.Arrival = n.Eng.Now()
		if !rq.ring.Enqueue(m) {
			return // counted via ring.Drops
		}
		if !rq.intrPending && !n.intrDisabled {
			rq.intrPending = true
			n.stats.HostIntrs++
			rq.stats.HostIntrs++
			n.raiseRing(q)
		}
	case ModeSmart:
		if n.backlog.Len() >= n.NICInputLimit {
			n.stats.NICDrops++
			return
		}
		m := n.Pool.AllocCopy(b)
		if m == nil {
			n.stats.NICDrops++
			return
		}
		m.Arrival = n.Eng.Now()
		// The embedded processor serves packets serially.
		now := n.Eng.Now()
		if n.nicBusyUntil < now {
			n.nicBusyUntil = now
		}
		n.nicBusyUntil += n.NICPerPktCost
		n.backlog.Enqueue(m)
		n.Eng.At(n.nicBusyUntil, n.nicStep)
	}
}

// raiseRing invokes the interrupt callback for queue q's ring: the
// per-queue line when installed, else OnHostIntr.
func (n *NIC) raiseRing(q int) {
	if n.OnQueueIntr != nil {
		n.OnQueueIntr(q)
		return
	}
	if n.OnHostIntr != nil {
		n.OnHostIntr()
	}
}

// RxDequeue removes the next packet from receive queue 0 (driver code in
// host interrupt context). It returns nil when the ring is empty.
func (n *NIC) RxDequeue() *mbuf.Mbuf { return n.rxq[0].ring.Dequeue() }

// RxDequeueQ removes the next packet from receive queue q's ring.
func (n *NIC) RxDequeueQ(q int) *mbuf.Mbuf { return n.rxq[q].ring.Dequeue() }

// RxPeekQ returns queue q's ring head without removing it (drivers use
// it to price data-dependent interrupt work before performing it).
func (n *NIC) RxPeekQ(q int) *mbuf.Mbuf { return n.rxq[q].ring.Peek() }

// RxPending returns the number of packets waiting in queue 0's ring.
func (n *NIC) RxPending() int { return n.rxq[0].ring.Len() }

// RxPendingQ returns the number of packets waiting in queue q's ring.
func (n *NIC) RxPendingQ(q int) int { return n.rxq[q].ring.Len() }

// IntrDone re-enables queue 0's receive interrupts after the driver has
// drained the ring. If packets arrived meanwhile, a new interrupt is
// raised immediately (engine context).
func (n *NIC) IntrDone() { n.IntrDoneQ(0) }

// IntrDoneQ is IntrDone for receive queue q.
func (n *NIC) IntrDoneQ(q int) {
	rq := &n.rxq[q]
	rq.intrPending = false
	if n.intrDisabled {
		return
	}
	if rq.ring.Len() > 0 && n.Mode == ModeRaw {
		rq.intrPending = true
		n.stats.HostIntrs++
		rq.stats.HostIntrs++
		n.raiseRing(q)
	}
}

// SetIntrEnabled enables or disables receive interrupts on every queue
// (the Mogul & Ramakrishnan livelock mitigation disables them under
// overload and polls instead). Re-enabling raises an interrupt
// immediately, in queue order, on each queue with packets waiting.
func (n *NIC) SetIntrEnabled(enabled bool) {
	n.intrDisabled = !enabled
	if !enabled || n.Mode != ModeRaw {
		return
	}
	for q := range n.rxq {
		rq := &n.rxq[q]
		if !rq.intrPending && rq.ring.Len() > 0 {
			rq.intrPending = true
			n.stats.HostIntrs++
			rq.stats.HostIntrs++
			n.raiseRing(q)
		}
	}
}

// RaiseIntr raises a host interrupt through OnHostIntr: on behalf of the
// embedded processor (ModeSmart), e.g. when a channel transitions
// empty->nonempty and the receiver requested interrupts, or with no
// packet behind it (an injected spurious interrupt).
func (n *NIC) RaiseIntr() {
	n.stats.HostIntrs++
	if n.OnHostIntr != nil {
		n.OnHostIntr()
	}
}

// Send queues a packet for transmission. It is dropped (and freed) if the
// interface queue is full. Transmission consumes no host CPU; the caller
// accounts any driver cost itself.
func (n *NIC) Send(m *mbuf.Mbuf) {
	if !n.ifq.Enqueue(m) {
		return
	}
	n.kickTx()
}

// IfqLen returns the current interface queue depth.
func (n *NIC) IfqLen() int { return n.ifq.Len() }

// kickTx starts transmitting if the link is idle.
//
//lrp:hotpath
func (n *NIC) kickTx() {
	if n.txBusy {
		return
	}
	m := n.ifq.Dequeue()
	if m == nil {
		return
	}
	n.txBusy = true
	n.stats.TxPackets++
	// Release the pool slot now (transmission has started, as when this
	// path freed the mbuf and kept its bytes) but keep the storage alive
	// until the network layer finishes with it.
	m.BeginTransfer()
	if n.Transmit == nil {
		m.EndTransfer()
		n.txDone()
		return
	}
	n.Transmit(m, n.txDoneFn)
}

func (n *NIC) txDone() {
	n.txBusy = false
	n.kickTx()
}

// Channel is an LRP network-interface channel: the queue pair shared
// between the adaptor and the kernel for one endpoint. (This simulator
// models the receiver queue and its free-buffer budget as a single bounded
// queue; the transmit direction shares the NIC interface queue.)
type Channel struct {
	// Queue holds demultiplexed packets awaiting protocol processing.
	Queue *mbuf.Queue
	// IntrRequested is set by the kernel when a process blocks on the
	// channel: the NIC then raises a host interrupt on the next
	// empty->nonempty transition ("if the queue was previously empty, and
	// a state flag indicates that interrupts are requested for this
	// socket, the NI generates a host interrupt").
	IntrRequested bool
	// ProcessingDisabled causes arriving packets to be discarded at the
	// channel. Used for listening sockets whose backlog is full: "protocol
	// processing is disabled for listening sockets that have exceeded
	// their listen backlog limit, thus causing the discard of further SYN
	// packets at the NI channel queue."
	ProcessingDisabled bool

	// DisabledDrops counts packets discarded due to ProcessingDisabled.
	DisabledDrops uint64

	// Owner is an opaque reference to the endpoint (socket) the channel
	// feeds; the architecture layer uses it during dispatch.
	Owner any
}

// NewChannel creates a channel with the given queue limit.
func NewChannel(limit int) *Channel {
	return &Channel{Queue: mbuf.NewQueue(limit)}
}

// Deliver enqueues a demultiplexed packet, honouring early discard. It
// returns true if the packet was queued and the queue was previously
// empty (i.e. the caller should consider raising a host interrupt).
func (c *Channel) Deliver(m *mbuf.Mbuf) (wasEmpty bool, ok bool) {
	if c.ProcessingDisabled {
		c.DisabledDrops++
		m.Free()
		return false, false
	}
	wasEmpty = c.Queue.Len() == 0
	if !c.Queue.Enqueue(m) {
		return false, false
	}
	return wasEmpty, true
}
