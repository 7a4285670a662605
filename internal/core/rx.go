package core

// Receive-path drivers: where each architecture spends host CPU between a
// packet's arrival and its delivery to a socket. All four paths feed the
// same protocol code (protoInput, udpInput, tcpInput); they differ in the
// execution context, the discard point, and the accounting.

import (
	"lrp/internal/demux"
	"lrp/internal/kernel"
	"lrp/internal/mbuf"
	"lrp/internal/nic"
	"lrp/internal/pkt"
	"lrp/internal/socket"
	"lrp/internal/tcp"
	"lrp/internal/trace"
)

// ---------------------------------------------------------------------------
// Raw-ring drivers (4.4BSD, Polling, SOFT-LRP, Early-Demux) run once per
// NIC receive queue: queue q's interrupt and driver steps run on CPU
// q % CPUs, and a uniprocessor single-queue host is the one-queue,
// one-CPU case. The closures in Host.qStep bind q, ci and k once in
// wireRx, so the per-interrupt path allocates nothing.

// ---------------------------------------------------------------------------
// 4.4BSD: interrupt handler -> IP queue -> software interrupt -> socket
// queue. Highest priority to capture, second to protocol processing,
// lowest to the application.

// bsdDriverStep handles one packet from queue q in the interrupt handler
// on CPU ci (kernel k), then chains to the next ring entry (batching: the
// fixed dispatch cost is paid once per interrupt, the per-packet cost
// per packet). The packet goes onto CPU ci's IP queue and software
// interrupt. Polling runs the same driver plus its overload check.
func (h *Host) bsdDriverStep(q, ci int, k *kernel.Kernel) {
	ipq := h.ipqs[ci]
	if m := h.NIC.RxDequeueQ(q); m != nil {
		// Queue on the IP queue; drop if full — after the driver has
		// already invested work in the packet.
		swEmpty := k.SWPending() == 0
		if ipq.Enqueue(m) {
			cost := h.protoInCost(m.Data, true) + h.CM.EagerProtoPenalty
			if swEmpty {
				cost += h.CM.SWDispatchFixed
			}
			k.PostSW(kernel.WorkItem{Cost: cost, Fn: h.bsdSoftintFns[ci]})
		}
	}
	if h.Arch == ArchPolling && ipq.Len() >= h.CM.PollEnterThresh {
		// Overload: protocol processing is falling behind (the IP queue
		// is backing up). Switch to polled mode; interrupts stay off
		// until a poll finds the ring drained.
		h.enterPolledMode()
		return
	}
	if h.NIC.RxPendingQ(q) > 0 {
		k.PostHW(kernel.WorkItem{Cost: h.CM.DriverPerPkt, Fn: h.qStep[q]})
	} else {
		h.NIC.IntrDoneQ(q)
	}
}

// ---------------------------------------------------------------------------
// SOFT-LRP and Early-Demux: demultiplexing in the host interrupt handler.

// demuxDriverStep demultiplexes one packet from queue q in interrupt
// context on the queue's CPU k, then chains to the next ring entry.
func (h *Host) demuxDriverStep(q int, k *kernel.Kernel) {
	if m := h.NIC.RxDequeueQ(q); m != nil {
		h.demuxDeliverOn(k, m)
	}
	if h.NIC.RxPendingQ(q) > 0 {
		k.PostHW(kernel.WorkItem{Cost: h.CM.DriverPerPkt + h.headDemuxCost(q), Fn: h.qStep[q]})
	} else {
		h.NIC.IntrDoneQ(q)
	}
}

// headDemuxCost prices the demultiplexing of the packet the next driver
// step will dequeue from queue q (data-dependent under interpreted
// filter demux).
func (h *Host) headDemuxCost(q int) int64 {
	if h.filterDemux == nil {
		return h.CM.DemuxCost
	}
	m := h.NIC.RxPeekQ(q)
	if m == nil {
		return h.CM.DemuxCost
	}
	return h.demuxCostFor(m.Data)
}

// demuxDeliverOn classifies a packet and places it on the right NI
// channel (or socket queue for Early-Demux). It runs in the host
// interrupt context of CPU k (SOFT-LRP, Early-Demux) or on the NIC
// processor (NI-LRP, with k the boot CPU). Eager follow-up work
// (Early-Demux softints, foreign-traffic forwarding) stays on the CPU k
// whose queue carried the packet.
//
//lrp:hotpath
func (h *Host) demuxDeliverOn(k *kernel.Kernel, m *mbuf.Mbuf) {
	sock, v := h.pcbs.Classify(m.Data, h.Eng.Now())
	if (v == demux.Match || v == demux.NoMatch) && h.forwarding && h.isForeign(m.Data) {
		// Transit traffic. (A Match can occur when a local port number
		// coincides with a foreign packet's; the address check wins.)
		h.deliverForeignOn(k, m)
		return
	}
	if h.Trace != nil {
		h.Trace.Add(trace.KindDemux, "%s: verdict=%v", h.Name, v) //lrp:coldalloc vararg boxing; only reached with tracing enabled
	}
	switch v {
	case demux.Malformed:
		h.stats.MalformedDrops++
		if h.Trace != nil {
			h.Trace.Add(trace.KindDrop, "%s: malformed", h.Name) //lrp:coldalloc vararg boxing; only reached with tracing enabled
		}
		m.Free()
		return
	case demux.NoMatch:
		h.stats.NoMatchDrops++
		if h.Trace != nil {
			h.Trace.Add(trace.KindDrop, "%s: no endpoint", h.Name) //lrp:coldalloc vararg boxing; only reached with tracing enabled
		}
		m.Free()
		return
	case demux.FragMiss:
		// Fragment with no mapping yet: the special fragment channel,
		// consulted by reassembly when it misses fragments.
		h.fragChan.Deliver(m)
		return
	}

	if h.Arch == ArchEarlyDemux {
		h.earlyDemuxDeliver(k, sock, m)
		return
	}

	ch := sock.NIChan
	if ch == nil {
		// Socket exists but has no channel (race with close).
		h.stats.NoMatchDrops++
		m.Free()
		return
	}
	wasEmpty, ok := ch.Deliver(m)
	if !ok {
		if h.Trace != nil {
			h.Trace.Add(trace.KindDrop, "%s: early discard at channel port %d", h.Name, sock.LPort) //lrp:coldalloc vararg boxing; only reached with tracing enabled
		}
		return // early discard (counted on the channel)
	}
	if wasEmpty && ch.IntrRequested {
		h.channelSignal(sock, ch)
	}
}

// channelSignal reacts to a channel's empty->nonempty transition when the
// receiver asked for interrupts: wake the receiver (UDP) or schedule
// asynchronous protocol processing (TCP). Under NI-LRP this requires an
// actual (minimal) host interrupt; under soft demux we are already in one.
//
// On an NI-LRP host built with RxQueues > 1 the channel's interrupt line
// is routed to the owning process's CPU — the NI-channel analogue of RSS
// steering — so the wakeup needs no follow-up IPI. Otherwise every
// channel interrupt is taken on CPU 0.
func (h *Host) channelSignal(sock *socket.Socket, ch *nic.Channel) {
	// One signal per empty->nonempty transition: the APP thread (TCP) or
	// the woken receiver (UDP) re-requests interrupts when it next needs
	// them.
	ch.IntrRequested = false
	act := sock.SignalAct
	if act == nil {
		// Built once per socket: the signal path runs per empty->nonempty
		// transition and must not allocate a closure each time.
		act = func() {
			switch {
			case sock.Type == socket.Stream:
				h.queueChannelWork(sock)
			default:
				if g := h.groupOf(sock); g != nil {
					// Shared (multicast) channel: wake the highest-priority
					// member with a sleeping receiver.
					h.mcastSignal(g)
					return
				}
				// "the process with the highest priority performs the
				// protocol processing"
				sock.RcvWait.WakeupBest()
			}
		}
		sock.SignalAct = act
	}
	if h.Arch == ArchNILRP {
		// The NIC raises a minimal host interrupt. Its cost is charged to
		// the socket's owner: the receiver caused this work, and LRP
		// accounts network processing to the process that receives the
		// traffic.
		h.NIC.RaiseIntr()
		k := h.K
		if h.steerChannels && sock.Owner != nil {
			k = sock.Owner.K
		}
		k.PostHW(kernel.WorkItem{Cost: h.CM.HWIntrFixed, ChargeTo: sock.Owner, Fn: act})
	} else {
		act()
	}
}

// earlyDemuxDeliver implements the paper's Early-Demux ablation: drop
// immediately if the destination socket cannot accept more data, otherwise
// schedule conventional (eager, softint, BSD-accounted) processing on the
// CPU k whose interrupt carried the packet.
func (h *Host) earlyDemuxDeliver(k *kernel.Kernel, sock *socket.Socket, m *mbuf.Mbuf) {
	if sock.Type == socket.Dgram && sock.RecvDgrams != nil && sock.RecvDgrams.Full() {
		h.stats.EarlyDrops++
		m.Free()
		return
	}
	if sock.Type == socket.Stream && sock.Listening {
		if c, ok := sock.Conn.(*tcp.Conn); ok && c.BacklogFull() && isSYN(m.Data) {
			h.stats.EarlyDrops++
			m.Free()
			return
		}
	}
	swEmpty := k.SWPending() == 0
	// PCB lookup is bypassed: the demultiplexer already identified the
	// socket ("Due to the early demultiplexing, UDP's PCB lookup was
	// bypassed, as in the LRP kernels").
	cost := h.protoInCost(m.Data, false) + h.CM.EagerProtoPenalty
	if swEmpty {
		cost += h.CM.SWDispatchFixed
	}
	k.PostSW(kernel.WorkItem{Cost: cost, Fn: func() { h.protoInput(m, sock) }})
}

// deliverForeign hands transit traffic to the forwarding machinery: the
// LRP forwarding daemon's channel (early discard when the daemon cannot
// keep up), or an eager software interrupt under Early-Demux, on the
// CPU k whose interrupt carried the packet.
func (h *Host) deliverForeignOn(k *kernel.Kernel, m *mbuf.Mbuf) {
	if h.Arch.IsLRP() {
		ch := h.fwdSock.NIChan
		wasEmpty, ok := ch.Deliver(m)
		if ok && wasEmpty && ch.IntrRequested {
			h.channelSignal(h.fwdSock, ch)
		}
		return
	}
	// Early-Demux: conventional eager forwarding.
	swEmpty := k.SWPending() == 0
	cost := h.CM.IPInCost + h.CM.IPOutCost
	if swEmpty {
		cost += h.CM.SWDispatchFixed
	}
	k.PostSW(kernel.WorkItem{Cost: cost, Fn: func() {
		b := m.Data
		m.BeginTransfer() // release the slot first, as the old free-then-read did
		h.forwardPacket(b)
		m.EndTransfer()
	}})
}

// isSYN reports whether a raw packet is a TCP SYN (no ACK).
func isSYN(b []byte) bool {
	ih, hlen, err := pkt.DecodeIPv4(b)
	if err != nil || ih.Proto != pkt.ProtoTCP || ih.IsFragment() {
		return false
	}
	seg := b[hlen:int(ih.TotalLen)]
	if len(seg) < pkt.TCPHeaderLen {
		return false
	}
	fl := seg[13]
	return fl&pkt.TCPSyn != 0 && fl&pkt.TCPAck == 0
}

// ---------------------------------------------------------------------------
// Shared protocol input (the "same 4.4BSD networking code" of the paper).

// protoInput performs full protocol input processing for one raw packet.
// sockHint, when non-nil, identifies the destination (early demux did the
// lookup); otherwise a PCB lookup resolves it. The CPU cost was accounted
// by the caller's context.
//
// The mbuf's pool slot is released up front (protocol input can itself
// allocate — ACKs, echo replies — and must see the same pool occupancy as
// before buffer recycling); the storage is recycled at the end, once
// nothing references the raw bytes. Only delivered UDP payload outlives
// this function, and that path takes its own reference on the mbuf so the
// consumer can recycle the buffer (Datagram.Release).
//
//lrp:hotpath
func (h *Host) protoInput(m *mbuf.Mbuf, sockHint *socket.Socket) {
	b := m.Data
	arrival := m.Arrival
	m.BeginTransfer()
	whole, done := h.reasm.Input(b, h.Eng.Now())
	if !done {
		m.EndTransfer() // fragment payload was copied by the reassembler
		return
	}
	ih, hlen, err := pkt.DecodeIPv4(whole)
	if err != nil {
		h.stats.MalformedDrops++
		m.EndTransfer()
		return
	}
	if ih.Dst != h.Addr && !ih.Dst.IsMulticast() {
		// Not ours: forward (in this — softint — context, charged to
		// whoever runs, under the eager architectures) or drop.
		if h.forwarding {
			h.forwardPacket(whole)
		} else {
			h.stats.NoMatchDrops++
		}
		m.EndTransfer() // forwardPacket rebuilt the packet in its own buffer
		return
	}
	seg := whole[hlen:int(ih.TotalLen)]
	switch ih.Proto {
	case pkt.ProtoUDP:
		// Delivered datagrams alias the packet bytes for as long as the
		// application holds them: when the storage is ours, pass the mbuf
		// along so the delivery can hand it to the consumer for recycling.
		var own *mbuf.Mbuf
		if aliases(whole, b) {
			own = m
		}
		h.udpInput(&ih, seg, arrival, sockHint, own)
	case pkt.ProtoTCP:
		h.tcpInput(&ih, seg, sockHint) // TCP copies what it retains
	case pkt.ProtoICMP:
		h.icmpProcess(&ih, seg) // replies are built in fresh buffers
	default:
		h.stats.NoMatchDrops++
	}
	m.EndTransfer()
}

// aliases reports whether x is backed by the same bytes as the original
// packet b — i.e. whether the reassembler passed the packet through rather
// than assembling a fresh buffer.
func aliases(x, b []byte) bool {
	return len(x) > 0 && len(b) > 0 && &x[0] == &b[0]
}

// udpInput validates a UDP datagram and appends it to the destination
// socket queue. m, when non-nil, is the packet's mbuf whose storage backs
// seg and whose release still belongs to the caller: on delivery udpInput
// takes an extra reference and attaches it to the datagram so the consumer
// can recycle the buffer; on a drop the caller's release recycles it.
//
//lrp:hotpath
func (h *Host) udpInput(ih *pkt.IPv4Header, seg []byte, arrival int64, sock *socket.Socket, m *mbuf.Mbuf) {
	uh, err := pkt.DecodeUDP(seg, ih.Src, ih.Dst)
	if err != nil {
		h.protoDrop(sock)
		return
	}
	if sock == nil {
		s, v := h.lookupSocket(ih, uh.SrcPort, uh.DstPort)
		if v != demux.Match {
			h.stats.NoMatchDrops++
			return
		}
		sock = s
	}
	if sock.Closed || sock.RecvDgrams == nil {
		h.stats.NoMatchDrops++
		return
	}
	d := socket.Datagram{
		Data:    seg[pkt.UDPHeaderLen:int(uh.Length)],
		Src:     ih.Src,
		SPort:   uh.SrcPort,
		Arrival: arrival,
	}
	if g := h.groupOf(sock); g != nil {
		// Multicast: fan the datagram out to every member socket. The
		// copies share the bytes, so no member may recycle them — disown
		// the storage and let the collector reclaim it.
		if m != nil {
			m.Detach()
		}
		h.mcastFanout(nil, g, d)
		return
	}
	if m != nil {
		d.M = m
		m.AddRef() // the queue's reference; dropped again if the queue refuses
	}
	if !sock.RecvDgrams.Enqueue(d) {
		h.stats.SockQDrops++
		if m != nil {
			m.EndTransfer()
		}
		if h.Trace != nil {
			h.Trace.Add(trace.KindDrop, "%s: socket queue overflow port %d", h.Name, sock.LPort) //lrp:coldalloc vararg boxing; only reached with tracing enabled
		}
		return // socket queue overflow
	}
	if h.Trace != nil {
		h.Trace.Add(trace.KindDeliver, "%s: udp %d bytes -> port %d", h.Name, len(d.Data), sock.LPort) //lrp:coldalloc vararg boxing; only reached with tracing enabled
	}
	sock.Stats.RxDelivered++
	sock.Stats.RxBytes += uint64(len(d.Data))
	sock.RcvWait.WakeupAll()
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
