package core

// Receive-path drivers: where each architecture spends host CPU between a
// packet's arrival and its IP input (input.go). Every path ends in the same
// input machine; they differ in the execution context, the discard point,
// and the accounting.

import (
	"slices"

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
// one-CPU case. The closures in Host.qStep bind q and ci once in wireRx,
// and eager protocol input rides a record on the CPU's softnet queue, so
// the receive path allocates nothing per interrupt or per packet.

// ---------------------------------------------------------------------------
// 4.4BSD: interrupt handler -> IP queue -> software interrupt -> socket
// queue. Highest priority to capture, second to protocol processing,
// lowest to the application.

// bsdDriverStep handles one packet from queue q in the interrupt handler
// on CPU ci, then chains to the next ring entry (batching: the fixed
// dispatch cost is paid once per interrupt, the per-packet cost per
// packet). The packet goes onto CPU ci's IP queue and software
// interrupt. Polling runs the same driver plus its overload check.
func (h *Host) bsdDriverStep(q, ci int) {
	cw := &h.work[ci]
	k := cw.k
	if m := h.NIC.RxDequeueQ(q); m != nil {
		// Queue on the IP queue; drop if full — after the driver has
		// already invested work in the packet.
		cw.post(m, nil, h.eagerCost(k, m.Data, true))
	}
	if h.Arch == ArchPolling && cw.softnet.Len() >= h.CM.PollEnterThresh {
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
// context on the queue's CPU ci, then chains to the next ring entry.
func (h *Host) demuxDriverStep(q, ci int) {
	if m := h.NIC.RxDequeueQ(q); m != nil {
		h.demuxDeliverOn(ci, m)
	}
	k := h.CPUs[ci]
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
// interrupt context of CPU ci (SOFT-LRP, Early-Demux) or on the NIC
// processor (NI-LRP, with ci the boot CPU). Eager follow-up work
// (Early-Demux softints, its forwarding) stays on the CPU ci whose queue
// carried the packet.
//
//lrp:hotpath
func (h *Host) demuxDeliverOn(ci int, m *mbuf.Mbuf) {
	sock, v := h.pcbs.Classify(m.Data, h.Eng.Now())
	if v != demux.Malformed && h.forwarding && h.isForeign(m.Data) {
		// Transit traffic, whatever the verdict: the address check wins
		// over a local port number that coincides with a foreign packet's,
		// over the ICMP proxy, and over the fragment channel. LRP hands it
		// to the forwarding daemon's channel (early discard when the
		// daemon cannot keep up); Early-Demux forwards it eagerly, priced
		// as BSD prices it.
		if h.Arch == ArchEarlyDemux {
			h.earlyDemuxDeliver(ci, nil, m)
			return
		}
		ch := h.fwdSock.NIChan
		wasEmpty, ok := ch.Deliver(m)
		if ok && wasEmpty && ch.IntrRequested {
			h.channelSignal(h.fwdSock, ch)
		}
		return
	}
	h.Trace.Add(trace.Record{Kind: trace.KindDemux, Node: h.Name, What: v.String()})
	switch v {
	case demux.Malformed:
		h.stats.MalformedDrops++
		h.Trace.Add(trace.Record{Kind: trace.KindDrop, Node: h.Name, What: "malformed"})
		m.Free()
		return
	case demux.NoMatch:
		h.stats.NoMatchDrops++
		h.Trace.Add(trace.Record{Kind: trace.KindDrop, Node: h.Name, What: "no endpoint"})
		m.Free()
		return
	case demux.FragMiss:
		if h.fragChan == nil {
			// Early-Demux has no fragment channel: eager input reassembles
			// the fragment and pays the PCB lookup that a mapping would
			// have let it skip.
			h.earlyDemuxDeliver(ci, nil, m)
			return
		}
		// Fragment with no mapping yet: the special fragment channel,
		// consulted by reassembly when it misses fragments.
		h.fragChan.Deliver(m)
		return
	}

	if h.Arch == ArchEarlyDemux {
		h.earlyDemuxDeliver(ci, sock, m)
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
		h.Trace.Add(trace.Record{Kind: trace.KindDrop, Node: h.Name, What: "early discard at channel", Port: sock.LPort})
		return // early discard (counted on the channel)
	}
	if wasEmpty && ch.IntrRequested {
		h.channelSignal(sock, ch)
	}
}

// channelSignal reacts to a channel's empty->nonempty transition when the
// receiver asked for interrupts (signal). Under soft demux we are already
// in an interrupt; under NI-LRP the NIC raises an actual (minimal) host
// interrupt, whose work item delivers the signal.
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
	if h.Arch != ArchNILRP {
		h.signal(sock)
		return
	}
	// The interrupt's cost is charged to the socket's owner: the receiver
	// caused this work, and LRP accounts network processing to the
	// process that receives the traffic.
	h.NIC.RaiseIntr()
	cw := &h.work[0]
	if h.steerChannels && sock.Owner != nil {
		cw = h.workOn(sock.Owner.K)
	}
	cw.signals.Enqueue(sock)
	cw.k.PostHW(kernel.WorkItem{Cost: h.CM.HWIntrFixed, ChargeTo: sock.Owner, Fn: cw.signalFn})
}

// workOn returns the deferred-work records of the host CPU running
// kernel k.
func (h *Host) workOn(k *kernel.Kernel) *cpuWork {
	return &h.work[slices.Index(h.CPUs, k)]
}

// signal wakes a channel's receiver (UDP) or schedules asynchronous
// protocol processing (TCP).
func (h *Host) signal(sock *socket.Socket) {
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
		// "the process with the highest priority performs the protocol
		// processing"
		sock.RcvWait.WakeupBest()
	}
}

// earlyDemuxDeliver implements the paper's Early-Demux ablation: drop
// immediately if the destination socket cannot accept more data, otherwise
// schedule conventional (eager, softint, BSD-accounted) processing on the
// CPU ci whose interrupt carried the packet. A nil sock (a fragment the
// demultiplexer could not map, or transit traffic) skips the discard
// checks and pays the PCB lookup.
func (h *Host) earlyDemuxDeliver(ci int, sock *socket.Socket, m *mbuf.Mbuf) {
	if sock != nil && sock.Type == socket.Dgram && sock.RecvDgrams != nil && sock.RecvDgrams.Full() {
		h.stats.EarlyDrops++
		m.Free()
		return
	}
	if sock != nil && sock.Type == socket.Stream && sock.Listening {
		if c, ok := sock.Conn.(*tcp.Conn); ok && c.BacklogFull() && isSYN(m.Data) {
			h.stats.EarlyDrops++
			m.Free()
			return
		}
	}
	// PCB lookup is bypassed when the demultiplexer identified the socket
	// ("Due to the early demultiplexing, UDP's PCB lookup was bypassed, as
	// in the LRP kernels").
	cw := &h.work[ci]
	cw.post(m, sock, h.eagerCost(cw.k, m.Data, sock == nil))
}

// eagerCost prices eager protocol input of packet b in software-interrupt
// context on kernel k: the protocol cost and the eager penalty, plus the
// softint dispatch when k has no software interrupt pending.
func (h *Host) eagerCost(k *kernel.Kernel, b []byte, pcbLookup bool) int64 {
	cost := h.protoInCost(b, pcbLookup) + h.CM.EagerProtoPenalty
	if k.SWPending() == 0 {
		cost += h.CM.SWDispatchFixed
	}
	return cost
}

// post queues m, with the socket early demultiplexing found for it, on
// the CPU's softnet queue and posts the software interrupt that runs its
// IP input, priced at cost. A full IP queue drops the packet.
func (cw *cpuWork) post(m *mbuf.Mbuf, hint *socket.Socket, cost int64) {
	if !cw.softnet.Enqueue(rxRec{m: m, hint: hint}) {
		m.Free()
		return
	}
	cw.k.PostSW(kernel.WorkItem{Cost: cost, Fn: cw.softnetFn})
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
