package core

import (
	"fmt"
	"slices"

	"lrp/internal/demux"
	"lrp/internal/ipv4"
	"lrp/internal/kernel"
	"lrp/internal/mbuf"
	"lrp/internal/netsim"
	"lrp/internal/nic"
	"lrp/internal/pkt"
	"lrp/internal/sim"
	"lrp/internal/smp"
	"lrp/internal/socket"
	"lrp/internal/tcp"
	"lrp/internal/trace"
)

// Config parameterizes host construction.
type Config struct {
	Name      string
	Addr      pkt.Addr
	Arch      Arch
	Costs     *CostModel // nil: DefaultCosts
	LinkBps   int64      // link bandwidth, bits/s (default 155 Mbit/s)
	PropDelay int64      // one-way propagation delay, µs (default 10)
	MTU       int        // default 9180 (IP over ATM)
	// NoIdleThread disables LRP's idle-time protocol processing thread
	// (an ablation knob; the paper argues the thread preserves latency).
	NoIdleThread bool
	// NoICMPDaemon disables the ICMP proxy daemon on LRP hosts.
	NoICMPDaemon bool
	// FilterDemux replaces the hand-coded demultiplexing function with an
	// interpreted packet-filter scan (SOFT-LRP/Early-Demux only): the
	// user-level-network-subsystem configuration of the related work,
	// whose demux cost grows with the number of bound endpoints.
	FilterDemux bool
	// CPUs is the number of simulated CPUs (0 or 1: a uniprocessor,
	// exactly the pre-SMP host). CPU 0 is the boot CPU (Host.K); the
	// network daemon processes are pinned there.
	CPUs int
	// RxQueues is the number of NIC receive queues (0 or 1: one ring).
	// With more, a deterministic RSS hash over a packet's addresses and
	// ports steers each flow to one queue, and each queue interrupts
	// its assigned CPU. NI-LRP has no raw rx rings; there a value above
	// one instead routes each NI channel's wakeup interrupt to the
	// owning process's CPU. ArchPolling is single-queue only.
	RxQueues int
	// QueueCPU maps rx queue index -> CPU index. A nil slice (or any
	// queue beyond its length) defaults to queue i -> CPU i mod CPUs.
	QueueCPU []int
}

// Stats aggregates host-level drop and delivery accounting, by location —
// the instrumentation behind the paper's MLFRR analysis ("4.4BSD and LRP
// drop packets at the socket queue or NI channel queue, respectively...
// 4.4BSD additionally starts to drop packets at the IP queue").
type Stats struct {
	IPQDrops       uint64 // shared IP queue overflow (BSD)
	ChannelDrops   uint64 // NI channel queue overflow (LRP) / early discard
	EarlyDrops     uint64 // Early-Demux discard at full socket queue
	SockQDrops     uint64 // socket queue overflow (BSD)
	NoMatchDrops   uint64 // no endpoint bound
	MalformedDrops uint64
	ProtoDrops     uint64 // dropped during protocol processing (checksums…)
	DisabledDrops  uint64 // dropped at channels with processing disabled
	Channels       int    // NI channels currently allocated
	MaxChannels    int    // high water mark
	// PollTransitions counts entries into polled mode (ArchPolling).
	PollTransitions uint64
}

// Host is one simulated machine: kernel, NIC, protocol state, sockets.
type Host struct {
	Eng *sim.Engine
	K   *kernel.Kernel
	// CPUs holds every kernel, in CPU order; CPUs[0] == K. A
	// uniprocessor host has exactly one entry and a nil Cluster.
	CPUs    []*kernel.Kernel
	Cluster *smp.Cluster
	NIC     *nic.NIC
	Net     *netsim.Network
	Addr    pkt.Addr
	Arch    Arch
	CM      *CostModel
	Pool    *mbuf.Pool
	MTU     int
	Name    string

	pcbs  *demux.Table[*socket.Socket]
	reasm *ipv4.Reassembler

	// filterDemux, when non-nil, prices demultiplexing by interpreter
	// steps instead of the flat hand-coded cost.
	filterDemux *demux.FilterTable[*socket.Socket]
	filterProgs map[*socket.Socket]int // socket -> entry handle

	ipq *mbuf.Queue // BSD shared IP queue

	// Single-queue receive entries, bound once in NewHost so posting them
	// per interrupt or per packet allocates no method-value closure.
	rxStep    func() // the architecture's driver step
	softintFn func() // bsdSoftint (BSD, Polling)

	// Multi-queue receive state (nil/false on a single-queue host).
	multiQueue    bool          // per-flow rx steering is on
	queueCPU      []int         // rx queue -> CPU index
	ipqs          []*mbuf.Queue // per-CPU IP queues (BSD multi-queue); [0] == ipq
	bsdSoftintFns []func()      // per-CPU softint bodies, built once
	qStep         []func()      // per-queue driver-step closures, built once
	qIntr         []func()      // per-queue interrupt entries, built once

	fragChan *nic.Channel // LRP: fragments that missed the demux mapping
	twChan   *nic.Channel // NI-LRP: traffic for deallocated TIME_WAIT channels

	// sockets holds the live sockets, in creation order; releaseSocket
	// drops each at its final close.
	sockets []*socket.Socket
	// idleSocks is the idle thread's candidate list: the UDP datagram
	// sockets (multicast group sockets included), in creation order.
	// Only hosts with an idle thread fill it; the thread drops closed
	// entries at the start of each pass.
	idleSocks []*socket.Socket
	ephemeral uint16
	iss       uint32
	ipid      uint16

	// txScratch is reused for building outgoing UDP packets and rebuilding
	// forwarded ones; ipOutput copies into pool-owned storage before it
	// returns, so the next build may overwrite it.
	txScratch []byte

	mcast       map[mcastKey]*mcastGroup
	mcastBySock map[*socket.Socket]*mcastGroup
	mcastMember map[*socket.Socket]*mcastGroup

	forwarding bool
	fwdSock    *socket.Socket
	fwdStats   ForwardStats

	// polled marks ArchPolling's overload mode (interrupts off).
	polled bool

	// Trace, when non-nil, records packet-path events (demux verdicts,
	// drops, deliveries). Enable with EnableTrace.
	Trace *trace.Log

	hooks           tcp.Hooks
	timers          map[*tcp.Conn]*connTimers
	appQ            []appWork
	appWq           kernel.WaitQ
	appProc         *kernel.Proc
	idleProc        *kernel.Proc
	icmpSock        *socket.Socket
	icmpEchoReplies uint64

	stats Stats
}

// connTimers tracks a connection's armed timers with generation counters,
// so a timer that fires but whose processing is still queued (e.g. behind
// the APP thread) can be invalidated by a later disarm. expire holds each
// timer's expiry thunk, built on its first arm and reused by every later
// one.
type connTimers struct {
	ev     [tcp.NumTimers]sim.Event
	gen    [tcp.NumTimers]uint64
	expire [tcp.NumTimers]func()
}

// appWork is one unit of work for the asynchronous protocol processing
// thread: either "drain this socket's channel" or "this timer expired".
type appWork struct {
	sock  *socket.Socket // non-nil: drain its NI channel
	conn  *tcp.Conn      // non-nil with timer set: expiry
	timer tcp.Timer
	gen   uint64
}

// NewHost builds a host of the given architecture and attaches it to nw.
func NewHost(eng *sim.Engine, nw *netsim.Network, cfg Config) *Host {
	cm := cfg.Costs
	if cm == nil {
		cm = DefaultCosts()
	}
	if cfg.LinkBps == 0 {
		cfg.LinkBps = 155_000_000
	}
	if cfg.PropDelay == 0 {
		cfg.PropDelay = 10
	}
	if cfg.MTU == 0 {
		cfg.MTU = ipv4.DefaultMTU
	}
	h := &Host{
		Eng:       eng,
		Net:       nw,
		Addr:      cfg.Addr,
		Arch:      cfg.Arch,
		CM:        cm,
		MTU:       cfg.MTU,
		Name:      cfg.Name,
		pcbs:      demux.NewTable[*socket.Socket](),
		reasm:     ipv4.NewReassembler(),
		ipq:       mbuf.NewQueue(cm.IPQueueLimit),
		timers:    make(map[*tcp.Conn]*connTimers),
		ephemeral: 49152,
		iss:       1,
	}
	h.Pool = mbuf.NewPool(cm.MbufPoolLimit)
	h.K = kernel.New(eng, cfg.Name)
	h.K.CtxSwitchCost = cm.CtxSwitchCost
	h.CPUs = []*kernel.Kernel{h.K}
	ncpu := cfg.CPUs
	if ncpu < 1 {
		ncpu = 1
	}
	for i := 1; i < ncpu; i++ {
		k := kernel.New(eng, fmt.Sprintf("%s/cpu%d", cfg.Name, i))
		k.CtxSwitchCost = cm.CtxSwitchCost
		h.CPUs = append(h.CPUs, k)
	}
	if ncpu > 1 {
		h.Cluster = smp.New(eng, h.CPUs, smp.Config{
			IPILatency:  cm.IPILatency,
			IPICost:     cm.IPICost,
			MigrateCost: cm.MigrateCost,
		})
	}

	// Rx queue count: raw-ring architectures can spread RSS-hashed flows
	// over several rings; NI-LRP's smart NIC has no raw rings (the flag
	// below routes channel interrupts instead) and polling is
	// single-queue by construction.
	nq := cfg.RxQueues
	if nq < 1 {
		nq = 1
	}
	h.multiQueue = nq > 1
	if cfg.Arch == ArchNILRP || cfg.Arch == ArchPolling {
		nq = 1
	}

	mode := nic.ModeRaw
	if cfg.Arch == ArchNILRP {
		mode = nic.ModeSmart
	}
	h.NIC = nic.New(eng, nic.Config{
		Name:          cfg.Name + "-nic",
		Mode:          mode,
		Pool:          h.Pool,
		IfqLimit:      cm.IPQueueLimit,
		NICPerPktCost: cm.NICDemuxCost,
		NICInputLimit: cm.NICInputLimit,
		RxQueues:      nq,
	})
	nw.Attach(h.NIC, cfg.Addr, cfg.LinkBps, cfg.PropDelay)

	if cfg.FilterDemux {
		h.filterDemux = demux.NewFilterTable[*socket.Socket]()
		h.filterProgs = make(map[*socket.Socket]int)
	}
	switch cfg.Arch {
	case ArchBSD:
		if nq > 1 {
			h.wireQueueRx(cfg.QueueCPU)
		} else {
			h.rxStep = h.bsdDriverStep
			h.softintFn = h.bsdSoftint
			h.NIC.OnHostIntr = h.bsdHostIntr
		}
	case ArchSoftLRP, ArchEarlyDemux:
		if nq > 1 {
			h.wireQueueRx(cfg.QueueCPU)
		} else {
			h.rxStep = h.demuxDriverStep
			h.NIC.OnHostIntr = h.demuxHostIntr
		}
	case ArchNILRP:
		h.NIC.OnNICProcess = h.niDemuxProcess
		h.NIC.OnHostIntr = nil // raised explicitly per channel signal
	case ArchPolling:
		h.rxStep = h.pollingDriverStep
		h.softintFn = h.bsdSoftint
		h.NIC.OnHostIntr = h.pollingHostIntr
	}

	if cfg.Arch.IsLRP() {
		h.fragChan = nic.NewChannel(cm.ChannelLimit)
		h.twChan = nic.NewChannel(cm.ChannelLimit)
		h.twChan.IntrRequested = true
		h.initTCPHooks()
		h.appProc = h.K.SpawnStep(cfg.Name+"/app-tcp", 0, h.appMainStep())
		h.appProc.Pinned = true // kernel daemon: never migrated off CPU 0
		if !cfg.NoIdleThread {
			h.idleProc = h.K.SpawnStep(cfg.Name+"/idle-proto", 0, h.idleMainStep())
			h.idleProc.FixedPrio = kernel.PrioMax
			h.idleProc.Pinned = true
		}
		if !cfg.NoICMPDaemon {
			h.startICMPDaemon()
		}
	} else {
		h.initTCPHooks()
	}
	return h
}

// wireQueueRx installs the multi-queue receive path: one pre-built
// interrupt/driver-step closure pair per rx queue, each posting its
// work to the queue's assigned CPU. BSD additionally gets one IP queue
// and softint body per CPU (a per-CPU softnet queue), so protocol
// processing stays on the CPU that took the interrupt.
func (h *Host) wireQueueRx(queueCPU []int) {
	nq := h.NIC.NumRxQueues()
	h.queueCPU = make([]int, nq)
	for q := range h.queueCPU {
		ci := q % len(h.CPUs)
		if q < len(queueCPU) && queueCPU[q] >= 0 && queueCPU[q] < len(h.CPUs) {
			ci = queueCPU[q]
		}
		h.queueCPU[q] = ci
	}
	if h.Arch == ArchBSD {
		h.ipqs = make([]*mbuf.Queue, len(h.CPUs))
		h.bsdSoftintFns = make([]func(), len(h.CPUs))
		for i := range h.ipqs {
			if i == 0 {
				h.ipqs[0] = h.ipq
			} else {
				h.ipqs[i] = mbuf.NewQueue(h.CM.IPQueueLimit)
			}
			ipq := h.ipqs[i]
			h.bsdSoftintFns[i] = func() {
				if m := ipq.Dequeue(); m != nil {
					h.protoInput(m, nil)
				}
			}
		}
	}
	h.qStep = make([]func(), nq)
	h.qIntr = make([]func(), nq)
	for q := 0; q < nq; q++ {
		q := q
		ci := h.queueCPU[q]
		k := h.CPUs[ci]
		switch h.Arch {
		case ArchBSD:
			h.qStep[q] = func() { h.bsdDriverStepQ(q, ci, k) }
			h.qIntr[q] = func() {
				k.PostHW(kernel.WorkItem{Cost: h.CM.HWIntrFixed + h.CM.DriverPerPkt, Fn: h.qStep[q]})
			}
		default: // SOFT-LRP, Early-Demux
			h.qStep[q] = func() { h.demuxDriverStepQ(q, k) }
			h.qIntr[q] = func() {
				k.PostHW(kernel.WorkItem{Cost: h.CM.HWIntrFixed + h.CM.DriverPerPkt + h.headDemuxCostQ(q), Fn: h.qStep[q]})
			}
		}
	}
	h.NIC.OnQueueIntr = func(q int) { h.qIntr[q]() }
}

// KernelAt returns CPU i's kernel; index 0 is the boot CPU (Host.K).
func (h *Host) KernelAt(i int) *kernel.Kernel { return h.CPUs[i] }

// NumCPUs returns the number of simulated CPUs.
func (h *Host) NumCPUs() int { return len(h.CPUs) }

// EnableTrace attaches a bounded event log (capacity events) to the host
// and its kernels and returns it.
func (h *Host) EnableTrace(capacity int) *trace.Log {
	l := trace.New(capacity, h.Eng.Now)
	h.Trace = l
	for _, k := range h.CPUs {
		k.Trace = l
	}
	return l
}

// Stats returns a snapshot of drop/delivery accounting: the host's own
// counters, which keep the totals of released channels and sockets, plus
// the queue counters of the live IP queues and NI channels.
func (h *Host) Stats() Stats {
	s := h.stats
	s.IPQDrops = h.ipq.Drops()
	for i := 1; i < len(h.ipqs); i++ { // per-CPU softnet queues (ipqs[0] == ipq)
		s.IPQDrops += h.ipqs[i].Drops()
	}
	for _, so := range h.sockets {
		// An NI-LRP socket in TIME_WAIT points at the shared twChan,
		// counted once below: only a channel the socket owns is its own.
		if ch := so.NIChan; ch != nil && ch.Owner == so {
			s.ChannelDrops += ch.Queue.Drops()
			s.DisabledDrops += ch.DisabledDrops
		}
	}
	if h.fragChan != nil {
		s.ChannelDrops += h.fragChan.Queue.Drops()
	}
	if h.twChan != nil {
		s.ChannelDrops += h.twChan.Queue.Drops()
	}
	return s
}

// Sockets returns the host's live sockets, in creation order. A socket
// leaves the list at its final close; its drops stay in Stats.
func (h *Host) Sockets() []*socket.Socket { return append([]*socket.Socket(nil), h.sockets...) }

// releaseSocket forgets a socket at its final close. Nothing is lost from
// Stats: detachChannel already folded the socket's channel counters into
// the host's, and its protocol and socket-queue drops count on the host
// as they happen. Releasing a socket again does nothing.
func (h *Host) releaseSocket(s *socket.Socket) {
	if i := slices.Index(h.sockets, s); i >= 0 {
		h.sockets = slices.Delete(h.sockets, i, i+1)
	}
}

// protoDrop counts a packet dropped during protocol processing, on its
// socket when one is known and on the host, whose total outlives it.
func (h *Host) protoDrop(s *socket.Socket) {
	if s != nil {
		s.Stats.ProtoDrops++
	}
	h.stats.ProtoDrops++
}

// Shutdown stops the host's process goroutines on every CPU.
func (h *Host) Shutdown() {
	for _, k := range h.CPUs {
		k.Shutdown()
	}
}

// allocPort returns a fresh ephemeral port.
func (h *Host) allocPort() uint16 {
	for {
		h.ephemeral++
		if h.ephemeral < 49152 {
			h.ephemeral = 49152
		}
		p := h.ephemeral
		if _, used := h.pcbs.LookupListen(pkt.ProtoTCP, pkt.Addr{}, p); used {
			continue
		}
		if _, used := h.pcbs.LookupListen(pkt.ProtoUDP, pkt.Addr{}, p); used {
			continue
		}
		return p
	}
}

// nextISS returns a fresh TCP initial sequence number.
func (h *Host) nextISS() uint32 {
	h.iss += 64021
	return h.iss
}

// nextIPID returns a fresh IP identification value.
func (h *Host) nextIPID() uint16 {
	h.ipid++
	return h.ipid
}

// registerFilter adds an interpreted demux filter for a bound socket
// (filter-demux mode only).
func (h *Host) registerFilter(s *socket.Socket, prog demux.Program) {
	if h.filterDemux == nil {
		return
	}
	h.filterProgs[s] = h.filterDemux.Bind(prog, s)
}

// unregisterFilter removes a socket's filter, compacting later handles.
func (h *Host) unregisterFilter(s *socket.Socket) {
	if h.filterDemux == nil {
		return
	}
	hd, ok := h.filterProgs[s]
	if !ok {
		return
	}
	h.filterDemux.Unbind(hd)
	delete(h.filterProgs, s)
	// Walk the (insertion-ordered) socket list rather than ranging the
	// map: sim-core code must not depend on map iteration order.
	for _, other := range h.sockets {
		if oh, ok := h.filterProgs[other]; ok && oh > hd {
			h.filterProgs[other] = oh - 1
		}
	}
}

// demuxCostFor prices the demultiplexing of one raw packet: the flat
// hand-coded cost, or the interpreter work of a linear filter scan.
func (h *Host) demuxCostFor(b []byte) int64 {
	if h.filterDemux == nil {
		return h.CM.DemuxCost
	}
	_, _, steps := h.filterDemux.Classify(b)
	c := int64(steps) * h.CM.FilterStepCostNs / 1000
	if c < 1 {
		c = 1
	}
	return c
}

// attachChannel gives s an NI channel (LRP architectures only).
func (h *Host) attachChannel(s *socket.Socket) {
	if !h.Arch.IsLRP() || s.NIChan != nil {
		return
	}
	ch := nic.NewChannel(h.CM.ChannelLimit)
	ch.Owner = s
	if s.Type == socket.Stream {
		// TCP requires asynchronous processing; the channel always
		// requests an interrupt on empty->nonempty.
		ch.IntrRequested = true
	}
	s.NIChan = ch
	h.stats.Channels++
	if h.stats.Channels > h.stats.MaxChannels {
		h.stats.MaxChannels = h.stats.Channels
	}
}

// detachChannel releases s's NI channel, folding its drop counters into
// the host's first. A socket pointing at the shared TIME_WAIT channel
// only lets go of it: the host keeps that channel.
func (h *Host) detachChannel(s *socket.Socket) {
	ch := s.NIChan
	s.NIChan = nil
	if ch == nil || ch.Owner != s {
		return
	}
	h.stats.ChannelDrops += ch.Queue.Drops()
	h.stats.DisabledDrops += ch.DisabledDrops
	ch.Queue.Flush()
	h.stats.Channels--
}

// protoInCost estimates eager protocol-processing cost for a raw packet
// (used to price software-interrupt work items before processing).
// Checksum validation is length-dependent: TCP segments always pay it;
// UDP datagrams pay it when the wire checksum is present.
func (h *Host) protoInCost(b []byte, pcbLookup bool) int64 {
	if h.forwarding && h.isForeign(b) {
		return h.CM.IPInCost + h.CM.IPOutCost
	}
	cost := h.CM.IPInCost
	if len(b) > 9 {
		switch b[9] {
		case pkt.ProtoUDP:
			cost += h.CM.UDPInCost
			if udpHasChecksum(b) {
				cost += h.CM.ChecksumCost(len(b))
			}
		case pkt.ProtoTCP:
			cost += h.CM.TCPInCost + h.CM.ChecksumCost(len(b))
		default:
			cost += h.CM.UDPInCost / 2
		}
	}
	if pcbLookup {
		cost += h.CM.PCBLookupCost
	}
	return cost
}

// udpHasChecksum peeks at a raw packet's UDP checksum field.
func udpHasChecksum(b []byte) bool {
	if len(b) < pkt.IPv4HeaderLen+pkt.UDPHeaderLen {
		return false
	}
	hlen := int(b[0]&0x0f) * 4
	if len(b) < hlen+pkt.UDPHeaderLen {
		return false
	}
	return b[hlen+6] != 0 || b[hlen+7] != 0
}

// channelDequeueCost is the host cost of pulling one packet off an NI
// channel; NI-LRP pays extra for the adaptor-resident queue.
func (h *Host) channelDequeueCost() int64 {
	c := h.CM.ChannelDequeueCost
	if h.Arch == ArchNILRP {
		c += h.CM.NIChannelPenalty
	}
	return c
}

// lrpProtoInCost is the lazy-path protocol cost: PCB lookup is bypassed
// (the demultiplexer already identified the endpoint) unless the
// redundant-lookup methodology switch is on.
func (h *Host) lrpProtoInCost(b []byte) int64 {
	return h.protoInCost(b, h.CM.RedundantPCBLookup)
}

func (h *Host) String() string {
	return fmt.Sprintf("host %s (%s, %v)", h.Name, h.Addr, h.Arch)
}
