// Package socket provides the socket-layer data structures shared by all
// network-subsystem architectures: sockets, datagram receive queues,
// stream buffers and the wait queues processes block on. Protocol state
// machines live in the udp and tcp packages; system-call semantics (and
// thus the difference between BSD and LRP receive processing) live in the
// core package.
package socket

import (
	"lrp/internal/fifo"
	"lrp/internal/kernel"
	"lrp/internal/mbuf"
	"lrp/internal/nic"
	"lrp/internal/pkt"
)

// Type distinguishes datagram (UDP) from stream (TCP) sockets.
type Type int

const (
	// Dgram is a UDP socket.
	Dgram Type = iota
	// Stream is a TCP socket.
	Stream
)

// Datagram is one received UDP message with its source address.
type Datagram struct {
	Data  []byte
	Src   pkt.Addr
	SPort uint16
	// Arrival is when the packet arrived from the wire, for latency
	// measurements.
	Arrival int64
	// M, when non-nil, owns Data's backing storage: the datagram still
	// rides in the kernel buffer it arrived in (real kernels free the mbuf
	// after recv's copyout; the simulation hands the bytes over instead).
	// A consumer that is done with Data should call Release so the buffer
	// returns to its pool; dropping the datagram without releasing is safe
	// — the collector reclaims it — but wastes the pool's free lists.
	M *mbuf.Mbuf
}

// Release returns the datagram's backing buffer to its pool. Data must not
// be used afterwards. Safe on datagrams that own no buffer, and on the
// zero Datagram.
//
//lrp:hotpath
func (d *Datagram) Release() {
	if m := d.M; m != nil {
		d.M, d.Data = nil, nil
		m.EndTransfer()
	}
}

// DgramQueue is a bounded FIFO of received datagrams (the BSD socket
// receive queue for UDP, bounded in messages; Limit 0 means unbounded).
type DgramQueue = fifo.Queue[Datagram]

// NewDgramQueue returns a queue bounded at limit datagrams (0 = unbounded).
func NewDgramQueue(limit int) *DgramQueue { return &DgramQueue{Limit: limit} }

// StreamBuf is a bounded byte buffer (TCP send/receive socket buffer).
// Its zero value is an empty buffer without storage or bound.
//
// The buffered bytes are data[head:]. Removing bytes advances head, so
// the storage keeps its whole capacity, and head rewinds to the start
// when the buffer drains. An append that would run past the end of the
// storage first moves the bytes to its front, and grows the storage only
// when the bytes themselves need more room, never past Limit.
type StreamBuf struct {
	Limit int
	// Free, when set, is the free list the buffer takes its storage from
	// on its first append after creation or Release; Release hands the
	// storage back.
	Free *BufFreeList
	data []byte
	head int
	// Base tracks how many bytes have ever been removed, so stream offsets
	// can be mapped to sequence numbers by the TCP layer.
	Base int64
}

// Len returns the number of buffered bytes.
func (b *StreamBuf) Len() int { return len(b.data) - b.head }

// Space returns how many more bytes fit.
func (b *StreamBuf) Space() int {
	if b.Limit <= 0 {
		return int(^uint(0) >> 1)
	}
	s := b.Limit - b.Len()
	if s < 0 {
		return 0
	}
	return s
}

// Append copies in as much of p as fits and returns the number accepted.
// It invalidates every view Peek returned.
func (b *StreamBuf) Append(p []byte) int {
	n := len(p)
	if sp := b.Space(); n > sp {
		n = sp
	}
	end := len(b.data)
	if end+n > cap(b.data) {
		b.makeRoom(n)
		end = len(b.data)
	}
	b.data = b.data[:end+n]
	copy(b.data[end:], p[:n])
	return n
}

// makeRoom makes the storage hold the buffered bytes plus n more, with
// the bytes at its front: it takes storage from Free if the buffer has
// none, moves the bytes to the front if that leaves room, and otherwise
// moves them to new storage of twice the capacity (at least what they
// need, at most Limit). The storage given up is left to the collector.
//
//lrp:coldalloc amortized growth bounded by Limit: a connection's buffer grows to the most it holds at once, and a host's free list recycles the storage of dead connections
func (b *StreamBuf) makeRoom(n int) {
	if cap(b.data) == 0 && b.Free != nil {
		b.data, b.head = b.Free.take(), 0
	}
	live := b.data[b.head:]
	need := len(live) + n
	if need > cap(b.data) {
		c := 2 * cap(b.data)
		if c < need {
			c = need
		}
		if b.Limit > 0 && c > b.Limit {
			c = b.Limit
		}
		grown := make([]byte, len(live), c)
		copy(grown, live)
		b.data, b.head = grown, 0
		return
	}
	b.data = b.data[:copy(b.data[:cap(b.data)], live)]
	b.head = 0
}

// ReadInto moves up to len(p) bytes from the front of the buffer into p
// and returns the number moved.
func (b *StreamBuf) ReadInto(p []byte) int {
	n := copy(p, b.data[b.head:])
	b.consume(n)
	return n
}

// Peek returns up to n bytes starting at offset off from the front,
// without removing them (used by TCP transmission). The view aliases the
// buffer's storage: it is valid until the next Append, ReadInto, Discard
// or Release, so a caller copies it before making any of those calls.
func (b *StreamBuf) Peek(off, n int) []byte {
	if off >= b.Len() {
		return nil
	}
	end := off + n
	if end > b.Len() {
		end = b.Len()
	}
	return b.data[b.head+off : b.head+end]
}

// Discard removes n bytes from the front without copying (ACK processing).
func (b *StreamBuf) Discard(n int) {
	if n > b.Len() {
		n = b.Len()
	}
	b.consume(n)
}

// consume removes n buffered bytes from the front, rewinding to the start
// of the storage when the buffer drains.
func (b *StreamBuf) consume(n int) {
	b.head += n
	b.Base += int64(n)
	if b.head == len(b.data) {
		b.data, b.head = b.data[:0], 0
	}
}

// Release discards the buffered bytes and hands the storage to Free (or
// to the collector when Free is nil). The buffer keeps no reference to
// the storage, which may serve another buffer from then on; a later
// Append takes storage afresh.
func (b *StreamBuf) Release() {
	b.Discard(b.Len())
	if b.Free != nil && cap(b.data) > 0 {
		b.Free.put(b.data)
	}
	b.data = nil
}

// BufFreeList holds stream-buffer storage for reuse. The buffers of one
// host's connections share one list: a buffer takes storage on its first
// append, and a dying connection's buffers hand theirs back, so
// steady-state connection churn allocates no buffer storage. It is
// last-in first-out: the storage handed back last is reused first.
type BufFreeList struct {
	free [][]byte
}

// take pops the most recently returned storage, nil when there is none.
func (f *BufFreeList) take() []byte {
	n := len(f.free)
	if n == 0 {
		return nil
	}
	s := f.free[n-1]
	f.free[n-1] = nil
	f.free = f.free[:n-1]
	return s
}

// put returns storage to the list, emptied.
//
//lrp:coldalloc amortized growth: the list grows to the most storage idle at once, then recycles its capacity
func (f *BufFreeList) put(s []byte) {
	f.free = append(f.free, s[:0])
}

// Stats collects per-socket counters used by the experiments.
type Stats struct {
	RxDelivered uint64 // messages/segments delivered to the application
	RxBytes     uint64
	TxPackets   uint64
	TxBytes     uint64
	// ProtoDrops counts packets discarded during protocol processing
	// (bad checksum, no connection state, etc.).
	ProtoDrops uint64
}

// Socket is one communication endpoint.
type Socket struct {
	Type  Type
	Proto byte

	Local  pkt.Addr
	LPort  uint16
	Remote pkt.Addr
	RPort  uint16

	Bound     bool
	Connected bool
	Closed    bool

	// NoUDPChecksum disables UDP checksumming on this socket (the paper's
	// UDP throughput test ran with checksumming disabled).
	NoUDPChecksum bool

	// Owner is the process that receives this socket's traffic; LRP
	// schedules and charges receive processing to it. For sockets shared
	// by several processes, this is the highest-priority participant.
	Owner *kernel.Proc

	// RecvDgrams is the datagram receive queue (Dgram sockets).
	RecvDgrams *DgramQueue

	// Conn is the attached TCP connection state (Stream sockets); typed
	// as any to avoid an import cycle with the tcp package. Until a
	// stream socket listens or connects, the host may keep its own state
	// here instead.
	Conn any

	// Backlog is the configured listen backlog (the live accept queue
	// lives on the TCP connection).
	Backlog int
	// Listening marks a stream socket in LISTEN state.
	Listening bool

	// NIChan is the LRP network-interface channel feeding this socket
	// (nil under BSD and Early-Demux).
	NIChan *nic.Channel

	// Wait queues.
	RcvWait    kernel.WaitQ
	SndWait    kernel.WaitQ
	AcceptWait kernel.WaitQ

	Stats Stats
}

// NewSocket creates an unbound socket of the given type owned by owner.
func NewSocket(t Type, owner *kernel.Proc) *Socket {
	s := &Socket{Type: t, Owner: owner}
	if t == Dgram {
		s.Proto = pkt.ProtoUDP
	} else {
		s.Proto = pkt.ProtoTCP
	}
	return s
}
