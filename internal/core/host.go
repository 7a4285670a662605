package core

import (
	"fmt"
	"slices"

	"lrp/internal/demux"
	"lrp/internal/fifo"
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
	Name  string
	Addr  pkt.Addr
	Arch  Arch
	Costs *CostModel // nil: DefaultCosts
	// NoIdleThread disables LRP's idle-time protocol processing thread
	// (an ablation knob; the paper argues the thread preserves latency).
	NoIdleThread bool
	// FilterDemux replaces the hand-coded demultiplexing function with an
	// interpreted packet-filter scan (SOFT-LRP/Early-Demux only): the
	// user-level-network-subsystem configuration of the related work,
	// whose demux cost grows with the number of bound endpoints.
	FilterDemux bool
	// CPUs is the number of simulated CPUs (0 or 1: a uniprocessor).
	// CPU 0 is the boot CPU (Host.K); the network daemon processes are
	// pinned there.
	CPUs int
	// RxQueues is the number of NIC receive queues (0 or 1: one ring).
	// With more, a deterministic RSS hash over a packet's addresses and
	// ports steers each flow to one queue. Every raw-ring architecture
	// runs the same per-queue driver, whatever the count: queue q
	// interrupts CPU q mod CPUs. NI-LRP has no raw rx rings; there a
	// value above one instead routes each NI channel's wakeup interrupt
	// to the owning process's CPU. ArchPolling clamps it to one.
	RxQueues int
}

// Stats aggregates host-level drop and delivery accounting, by location —
// the instrumentation behind the paper's MLFRR analysis ("4.4BSD and LRP
// drop packets at the socket queue or NI channel queue, respectively...
// 4.4BSD additionally starts to drop packets at the IP queue").
type Stats struct {
	IPQDrops       uint64 // IP queue overflow, summed over CPUs (BSD, Polling)
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
	Name    string

	pcbs  *demux.Table[*socket.Socket]
	reasm *ipv4.Reassembler

	// filterDemux, when non-nil, prices demultiplexing by interpreter
	// steps instead of the flat hand-coded cost.
	filterDemux *demux.FilterTable[*socket.Socket]
	filterProgs map[*socket.Socket]int // socket -> entry handle

	// Raw-ring receive state, built once in wireRx so posting work per
	// interrupt allocates no closure (nil under NI-LRP).
	qStep []func() // per-queue driver-step closures
	qIntr []func() // per-queue interrupt entries

	// work holds each CPU's deferred-work records, in CPU order.
	work []cpuWork

	// steerChannels routes each NI channel's wakeup interrupt to the
	// owning process's CPU (NI-LRP with RxQueues > 1).
	steerChannels bool

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

	// polled marks ArchPolling's overload mode (interrupts off). Each
	// poll pass queues its batch size on pollQ for pollFn, bound once
	// like pollPassFn.
	polled     bool
	pollQ      fifo.Queue[int]
	pollFn     func()
	pollPassFn func()

	// Trace, when non-nil, records packet-path events (demux verdicts,
	// drops, deliveries). Enable with EnableTrace.
	Trace *trace.Log

	hooks  tcp.Hooks
	timers map[*tcp.Conn]*connTimers
	// appQ holds protocol work records: the LRP APP thread drains it, and
	// on the eager kernels timerFn pops one timer expiry per software
	// interrupt.
	appQ            fifo.Queue[appWork]
	timerFn         func()
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

// appWork is one unit of protocol work: either "drain this socket's
// channel" (LRP) or "this timer expired".
type appWork struct {
	sock  *socket.Socket // non-nil: drain its NI channel
	conn  *tcp.Conn      // non-nil with timer set: expiry
	timer tcp.Timer
	gen   uint64
}

// cpuWork is one CPU's deferred receive work. Each FIFO holds records
// that one handler, bound once at construction, pops when its work item
// runs. Every post of a handler's work item pushes exactly one record,
// and a CPU runs each interrupt queue in post order, so every handler
// pops its own record.
type cpuWork struct {
	k *kernel.Kernel
	// softnet is the software-interrupt queue of eager protocol input:
	// the IP queue of BSD and Polling (bounded by IPQueueLimit; its drops
	// are IPQDrops) or Early-Demux's unbounded one. softnetFn runs the
	// head record through IP input.
	softnet   fifo.Queue[rxRec]
	softnetFn func()
	// signals holds the sockets whose NI-LRP channel signal this CPU
	// takes as a hardware interrupt; signalFn delivers the head one.
	signals  fifo.Queue[*socket.Socket]
	signalFn func()
}

// rxRec is one packet awaiting eager protocol input, with the socket
// early demultiplexing found for it (nil: a PCB lookup finds it).
type rxRec struct {
	m    *mbuf.Mbuf
	hint *socket.Socket
}

// NewHost builds a host of the given architecture and attaches it to nw.
func NewHost(eng *sim.Engine, nw *netsim.Network, cfg Config) *Host {
	cm := cfg.Costs
	if cm == nil {
		cm = DefaultCosts()
	}
	h := &Host{
		Eng:       eng,
		Net:       nw,
		Addr:      cfg.Addr,
		Arch:      cfg.Arch,
		CM:        cm,
		Name:      cfg.Name,
		pcbs:      demux.NewTable[*socket.Socket](),
		reasm:     ipv4.NewReassembler(),
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
	h.work = make([]cpuWork, ncpu)
	for i := range h.work {
		cw := &h.work[i]
		cw.k = h.CPUs[i]
		if cfg.Arch != ArchEarlyDemux {
			cw.softnet.Limit = cm.IPQueueLimit
		}
		// Eager protocol input for the head record: its cost was charged
		// by the posted work item, to whatever process happened to be
		// running — BSD's accounting.
		cw.softnetFn = func() {
			r, _ := cw.softnet.Dequeue()
			h.protoInput(r.m, r.hint)
		}
		cw.signalFn = func() {
			s, _ := cw.signals.Dequeue()
			h.signal(s)
		}
	}
	h.pollFn = h.pollBatch
	h.pollPassFn = h.pollPass
	h.timerFn = h.timerSoftint

	// Rx queue count: raw-ring architectures can spread RSS-hashed flows
	// over several rings; NI-LRP's smart NIC has no raw rings (a count
	// above one steers channel interrupts instead) and polling is
	// single-queue by construction.
	nq := cfg.RxQueues
	if nq < 1 {
		nq = 1
	}
	h.steerChannels = cfg.Arch == ArchNILRP && nq > 1
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
	nw.Attach(h.NIC, cfg.Addr, 155_000_000, 10) // 155 Mbit/s ATM, 10 µs propagation

	if cfg.FilterDemux {
		h.filterDemux = demux.NewFilterTable[*socket.Socket]()
		h.filterProgs = make(map[*socket.Socket]int)
	}
	if cfg.Arch == ArchNILRP {
		// Demultiplexing runs on the NIC processor: the packet has
		// already paid the NIC's per-packet cost, and classification
		// costs the host nothing.
		h.NIC.OnNICProcess = func(m *mbuf.Mbuf) { h.demuxDeliverOn(0, m) }
	} else {
		h.wireRx()
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
		h.startICMPDaemon()
	} else {
		h.initTCPHooks()
	}
	return h
}

// wireRx installs the raw-ring receive path: one pre-built interrupt
// entry and driver step per NIC receive queue, queue q posting its work
// to CPU q mod CPUs. Eager protocol input goes on that CPU's softnet
// queue, so protocol processing stays on the CPU that took the
// interrupt. OnHostIntr enters queue 0's handler, so an interrupt raised
// with no ring behind it (an injected spurious one) costs what a ring
// interrupt on queue 0 costs.
func (h *Host) wireRx() {
	nq := h.NIC.NumRxQueues()
	h.qStep = make([]func(), nq)
	h.qIntr = make([]func(), nq)
	for q := 0; q < nq; q++ {
		ci := q % len(h.CPUs)
		k := h.CPUs[ci]
		switch h.Arch {
		case ArchBSD, ArchPolling:
			h.qStep[q] = func() { h.bsdDriverStep(q, ci) }
			h.qIntr[q] = func() {
				k.PostHW(kernel.WorkItem{Cost: h.CM.HWIntrFixed + h.CM.DriverPerPkt, Fn: h.qStep[q]})
			}
		default: // SOFT-LRP, Early-Demux
			h.qStep[q] = func() { h.demuxDriverStep(q, ci) }
			h.qIntr[q] = func() {
				k.PostHW(kernel.WorkItem{Cost: h.CM.HWIntrFixed + h.CM.DriverPerPkt + h.headDemuxCost(q), Fn: h.qStep[q]})
			}
		}
	}
	h.NIC.OnQueueIntr = func(q int) { h.qIntr[q]() }
	h.NIC.OnHostIntr = h.qIntr[0]
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
	for i := range h.work {
		s.IPQDrops += h.work[i].softnet.Drops()
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
