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
type StreamBuf struct {
	Limit int
	data  []byte
	// Base tracks how many bytes have ever been removed, so stream offsets
	// can be mapped to sequence numbers by the TCP layer.
	Base int64
}

// NewStreamBuf returns a buffer bounded at limit bytes.
func NewStreamBuf(limit int) *StreamBuf { return &StreamBuf{Limit: limit} }

// Len returns the number of buffered bytes.
func (b *StreamBuf) Len() int { return len(b.data) }

// Space returns how many more bytes fit.
func (b *StreamBuf) Space() int {
	if b.Limit <= 0 {
		return int(^uint(0) >> 1)
	}
	s := b.Limit - len(b.data)
	if s < 0 {
		return 0
	}
	return s
}

// Append copies in as much of p as fits and returns the number accepted.
//
//lrp:coldalloc amortized growth bounded by Limit: the socket buffer reaches steady-state capacity and stops allocating
func (b *StreamBuf) Append(p []byte) int {
	n := len(p)
	if sp := b.Space(); n > sp {
		n = sp
	}
	b.data = append(b.data, p[:n]...)
	return n
}

// Read removes up to n bytes from the front.
func (b *StreamBuf) Read(n int) []byte {
	if n > len(b.data) {
		n = len(b.data)
	}
	out := make([]byte, n)
	copy(out, b.data)
	b.data = b.data[n:]
	b.Base += int64(n)
	if len(b.data) == 0 && cap(b.data) > 64*1024 {
		b.data = nil
	}
	return out
}

// Peek returns up to n bytes starting at offset off from the front,
// without removing them (used by TCP retransmission).
func (b *StreamBuf) Peek(off, n int) []byte {
	if off >= len(b.data) {
		return nil
	}
	end := off + n
	if end > len(b.data) {
		end = len(b.data)
	}
	return b.data[off:end]
}

// Discard removes n bytes from the front without copying (ACK processing).
func (b *StreamBuf) Discard(n int) {
	if n > len(b.data) {
		n = len(b.data)
	}
	b.data = b.data[n:]
	b.Base += int64(n)
	if len(b.data) == 0 && cap(b.data) > 64*1024 {
		b.data = nil
	}
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
	// as any to avoid an import cycle with the tcp package.
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
