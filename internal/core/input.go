package core

// IP input: the one reassemble→decode→dispatch machine behind every
// receive context — the "same 4.4BSD networking code" all of the paper's
// kernels execute. The contexts differ only in who runs the machine, who
// pays for it, and whether it may yield:
//
//	context                         runs it         pays            yields
//	softint (BSD, Polling,          no process      whoever the     no
//	  Early-Demux)                                  interrupt hit
//	receive call (LRP lazy path)    the receiver    the receiver    yes
//	idle thread (LRP)               idle thread     socket owner    yes
//	APP thread (LRP, TCP)           APP thread      socket owner    yes
//	ICMP and forwarding proxies     the daemon      the daemon      yes
//
// A softint's cost was charged up front by its posted work item, so the
// machine runs there with a nil process, which charges nothing and never
// yields (protoInput).

import (
	"lrp/internal/demux"
	"lrp/internal/kernel"
	"lrp/internal/mbuf"
	"lrp/internal/pkt"
	"lrp/internal/sim"
	"lrp/internal/socket"
	"lrp/internal/tcp"
	"lrp/internal/trace"
)

// inputOp is the frame of inputStep.
type inputOp struct {
	// recv asks for a delivered UDP datagram to be handed back in d
	// rather than queued on its socket: a receive call's lazy path.
	recv bool

	pc      int
	b       []byte // the raw packet
	arrival sim.Time
	sock    *socket.Socket // the destination socket; nil until a PCB lookup finds it
	ih      pkt.IPv4Header
	whole   []byte // the datagram: b itself, or the reassembler's buffer
	seg     []byte // whole's transport segment
	drain   fragDrainOp
	members []*socket.Socket // multicast fan-out, captured when it starts
	i       int

	// Results, valid once the machine completes: the datagram, and
	// whether one was handed back (recv only).
	d  socket.Datagram
	ok bool
}

// IP input machine states.
const (
	inCharge    = iota // charge the channel dequeue and protocol cost
	inDecode           // release the slot, decode, forward, reassemble
	inDrain            // pull missing fragments off the fragment channel
	inAssembled        // decode the reassembled datagram
	inDispatch         // dispatch by protocol
	inTCP              // hand the segment to TCP
	inQueue            // append the datagram to its socket's queue
	inFan              // multicast: charge the next member's enqueue
	inFanPut           // multicast: append to that member's queue
)

// inputStep runs IP input for one raw packet m. s is the socket the
// demultiplexer found (or the proxy daemon's pseudo-socket), nil when a
// PCB lookup must find it. The CPU is consumed by p and charged to owner;
// a nil p charges nothing and never yields. The packet is read only after
// the protocol-processing charge.
//
// The mbuf's pool slot is released up front (protocol input can itself
// allocate — ACKs, echo replies — and must see the same pool occupancy as
// before buffer recycling); the storage is recycled once nothing
// references the raw bytes. Only a delivered UDP datagram outlives the
// machine: when it rides in the packet's own buffer it takes the mbuf
// with it, so the consumer can recycle the storage (Datagram.Release).
//
//lrp:hotpath
func (h *Host) inputStep(p, owner *kernel.Proc, s *socket.Socket, m *mbuf.Mbuf, fr *inputOp) bool {
	for {
		switch fr.pc {
		case inCharge:
			fr.pc = inDecode
			if p != nil && p.ReqComputeSysFor(owner, h.channelDequeueCost()+h.lrpProtoInCost(m.Data)) {
				return false
			}
		case inDecode:
			fr.b, fr.arrival, fr.sock = m.Data, m.Arrival, s
			// The transfer spans scheduler yields, so the flow-sensitive
			// pairing check cannot follow it: every state that completes
			// the machine ends the transfer or moves it into a datagram.
			m.BeginTransfer() //lrp:nolint mbufown
			ih, hlen, err := pkt.DecodeIPv4(fr.b)
			if err != nil {
				h.stats.MalformedDrops++
				m.EndTransfer()
				return true
			}
			if ih.Dst != h.Addr && !ih.Dst.IsMulticast() {
				// Not ours: forward, fragments as they come, or drop.
				if h.forwarding {
					h.forwardPacket(&ih, fr.b)
				} else {
					h.stats.NoMatchDrops++
				}
				m.EndTransfer() // forwardPacket rebuilt the packet in its own buffer
				return true
			}
			if !ih.IsFragment() {
				fr.ih, fr.whole, fr.seg = ih, fr.b, fr.b[hlen:int(ih.TotalLen)]
				fr.pc = inDispatch
				continue
			}
			whole, done := h.reasm.Input(fr.b, h.Eng.Now())
			fr.whole = whole
			fr.pc = inAssembled
			if !done {
				fr.drain = fragDrainOp{}
				fr.pc = inDrain
			}
		case inDrain:
			if !h.fragDrainStep(p, owner, fr.b, &fr.drain) {
				return false
			}
			if !fr.drain.ok {
				m.EndTransfer() // fragment payload was copied by the reassembler
				return true
			}
			fr.whole = fr.drain.whole
			fr.pc = inAssembled
		case inAssembled:
			// The reassembler rebuilt the header; one for a datagram past
			// 64 KB wraps its length and does not decode.
			ih, hlen, err := pkt.DecodeIPv4(fr.whole)
			if err != nil {
				h.stats.MalformedDrops++
				m.EndTransfer()
				return true
			}
			fr.ih, fr.seg = ih, fr.whole[hlen:int(ih.TotalLen)]
			fr.pc = inDispatch
		case inDispatch:
			switch fr.ih.Proto {
			case pkt.ProtoTCP:
				fr.pc = inTCP
				// The shared TIME_WAIT channel names no one connection: pay
				// for the PCB lookup that finds it. (A host without the
				// channel has a nil twChan, which equals the nil NIChan of
				// an Early-Demux hint.)
				if h.twChan != nil && fr.sock != nil && fr.sock.NIChan == h.twChan {
					fr.sock = nil
					if p != nil && p.ReqComputeSysFor(owner, h.CM.PCBLookupCost) {
						return false
					}
				}
			case pkt.ProtoUDP:
				if !h.udpInput(fr, m) {
					return true
				}
				if fr.recv {
					fr.sock.Stats.RxDelivered++
					fr.sock.Stats.RxBytes += uint64(len(fr.d.Data))
					fr.ok = true
					return true
				}
				if g := h.groupOf(fr.sock); g != nil {
					// Multicast: every member gets a copy. The copies share
					// the bytes, so no member may recycle them — disown the
					// storage and let the collector reclaim it.
					if mm := fr.d.M; mm != nil {
						fr.d.M = nil
						mm.Detach()
						mm.EndTransfer()
					}
					fr.members = g.members
					fr.pc = inFan
					continue
				}
				fr.pc = inQueue
				if p != nil && p.ReqComputeSysFor(owner, h.CM.SockQueueCost) {
					return false
				}
			case pkt.ProtoICMP:
				h.icmpProcess(&fr.ih, fr.seg) // replies are built in fresh buffers
				m.EndTransfer()
				return true
			default:
				h.stats.NoMatchDrops++
				m.EndTransfer()
				return true
			}
		case inTCP:
			h.tcpInput(&fr.ih, fr.seg, fr.sock) // TCP copies what it retains
			m.EndTransfer()
			return true
		case inQueue:
			h.sockEnqueue(fr.sock, fr.d)
			fr.d = socket.Datagram{}
			return true
		case inFan:
			if fr.i >= len(fr.members) {
				return true
			}
			if ms := fr.members[fr.i]; ms.Closed || ms.RecvDgrams == nil {
				fr.i++
				continue
			}
			fr.pc = inFanPut
			if p != nil && p.ReqComputeSysFor(owner, h.CM.SockQueueCost) {
				return false
			}
		case inFanPut:
			h.sockEnqueue(fr.members[fr.i], fr.d)
			fr.i++
			fr.pc = inFan
		}
	}
}

// protoInput runs IP input in software-interrupt context: the machine
// with no process, so it completes in one call. sockHint, when non-nil,
// is the socket early demultiplexing found; otherwise a PCB lookup
// resolves the destination. The posted work item charged the CPU cost.
func (h *Host) protoInput(m *mbuf.Mbuf, sockHint *socket.Socket) {
	var fr inputOp
	h.inputStep(nil, nil, sockHint, m, &fr)
}

// udpInput validates the frame's UDP datagram, resolves its socket and
// builds fr.d. The packet's transfer moves into fr.d.M when the datagram
// rides in the packet's own buffer, and ends here otherwise; false means
// the datagram was dropped.
func (h *Host) udpInput(fr *inputOp, m *mbuf.Mbuf) bool {
	uh, err := pkt.DecodeUDP(fr.seg, fr.ih.Src, fr.ih.Dst)
	if err != nil {
		h.protoDrop(fr.sock)
		m.EndTransfer()
		return false
	}
	if fr.sock == nil {
		s, v := h.lookupSocket(&fr.ih, uh.SrcPort, uh.DstPort)
		if v != demux.Match {
			h.stats.NoMatchDrops++
			m.EndTransfer()
			return false
		}
		fr.sock = s
	}
	if fr.sock.Closed || fr.sock.RecvDgrams == nil {
		h.stats.NoMatchDrops++
		m.EndTransfer()
		return false
	}
	fr.d = socket.Datagram{
		Data:    fr.seg[pkt.UDPHeaderLen:int(uh.Length)],
		Src:     fr.ih.Src,
		SPort:   uh.SrcPort,
		Arrival: fr.arrival,
	}
	if aliases(fr.whole, fr.b) {
		fr.d.M = m
	} else {
		m.EndTransfer() // reassembled elsewhere; the packet buffer is done
	}
	return true
}

// sockEnqueue appends a processed datagram to s's receive queue and wakes
// its receivers. A full queue drops it and recycles its buffer.
func (h *Host) sockEnqueue(s *socket.Socket, d socket.Datagram) {
	if !s.RecvDgrams.Enqueue(d) {
		h.stats.SockQDrops++
		d.Release()
		h.Trace.Add(trace.Record{Kind: trace.KindDrop, Node: h.Name, What: "socket queue overflow", Port: s.LPort})
		return
	}
	h.Trace.Add(trace.Record{Kind: trace.KindDeliver, Node: h.Name, N: len(d.Data), Port: s.LPort})
	s.Stats.RxDelivered++
	s.Stats.RxBytes += uint64(len(d.Data))
	s.RcvWait.WakeupAll()
}

// aliases reports whether x is backed by the same bytes as the original
// packet b — i.e. whether the reassembler passed the packet through rather
// than assembling a fresh buffer.
func aliases(x, b []byte) bool {
	return len(x) > 0 && len(b) > 0 && &x[0] == &b[0]
}

// tcpInput validates a TCP segment and hands it to the connection state
// machine.
func (h *Host) tcpInput(ih *pkt.IPv4Header, seg []byte, sock *socket.Socket) {
	th, off, err := pkt.DecodeTCP(seg, ih.Src, ih.Dst)
	if err != nil {
		h.protoDrop(sock)
		return
	}
	if sock == nil {
		s, v := h.lookupSocket(ih, th.SrcPort, th.DstPort)
		if v != demux.Match {
			// No endpoint: a real stack would answer RST; the overload
			// experiments only need the drop.
			h.stats.NoMatchDrops++
			return
		}
		sock = s
	}
	c, ok := sock.Conn.(*tcp.Conn)
	if !ok || c == nil {
		h.stats.NoMatchDrops++
		return
	}
	c.Input(ih.Src, &th, seg[off:])
}

// lookupSocket performs the BSD PCB lookup (exact then wildcard).
func (h *Host) lookupSocket(ih *pkt.IPv4Header, sport, dport uint16) (*socket.Socket, demux.Verdict) {
	if s, ok := h.pcbs.LookupConnected(ih.Proto, ih.Dst, dport, ih.Src, sport); ok {
		return s, demux.Match
	}
	if s, ok := h.pcbs.LookupListen(ih.Proto, ih.Dst, dport); ok {
		return s, demux.Match
	}
	return nil, demux.NoMatch
}

// fragDrainOp is the frame of fragDrainStep.
type fragDrainOp struct {
	pc    int
	fm    *mbuf.Mbuf
	whole []byte
	ok    bool
}

// Fragment-drain machine states.
const (
	fragCheck   = iota // is reassembly actually missing pieces?
	fragDequeue        // pull the next queued fragment, charge for it
	fragInput          // feed it to the reassembler
)

// fragDrainStep feeds packets from the special fragment channel to the
// reassembler ("The IP reassembly function checks this channel queue when
// it misses fragments during reassembly"). Completes with ok and the
// assembled datagram if one emerges. A nil p charges nothing and never
// yields.
func (h *Host) fragDrainStep(p, owner *kernel.Proc, trigger []byte, fr *fragDrainOp) bool {
	for {
		switch fr.pc {
		case fragCheck:
			if h.fragChan == nil {
				return true
			}
			ih, _, err := pkt.DecodeIPv4(trigger)
			if err != nil || !h.reasm.MissingFor(ih.Src, ih.Dst, ih.ID, ih.Proto) {
				return true
			}
			fr.pc = fragDequeue
		case fragDequeue:
			fm := h.fragChan.Queue.Dequeue()
			if fm == nil {
				return true // ok=false
			}
			fr.fm = fm
			fr.pc = fragInput
			if p != nil && p.ReqComputeSysFor(owner, h.CM.IPInCost) {
				return false
			}
		case fragInput:
			// Fragments are copied by the reassembler; the assembled datagram
			// never aliases this mbuf, so its storage recycles immediately.
			fb := fr.fm.Data
			fr.fm.BeginTransfer()
			whole, done := h.reasm.Input(fb, h.Eng.Now())
			fr.fm.EndTransfer()
			fr.fm = nil
			if done {
				fr.whole = whole
				fr.ok = true
				return true
			}
			fr.pc = fragDequeue
		}
	}
}
