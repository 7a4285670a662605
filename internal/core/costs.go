// Package core composes the substrates into complete network-subsystem
// architectures and implements the paper's contribution: lazy receiver
// processing. It provides a Host abstraction — one simulated machine with
// a kernel, a NIC, protocol state and a socket system-call API — in five
// architecture variants that share all protocol code (one IP input
// machine, input.go) and differ only in where, when and at whose expense
// receiver processing happens:
//
//	ArchBSD        eager interrupt-driven processing, shared IP queue
//	ArchNILRP      LRP with demultiplexing on the NIC's embedded CPU
//	ArchSoftLRP    LRP with demultiplexing in the host interrupt handler
//	ArchEarlyDemux early demux + early discard, but eager processing and
//	               BSD accounting (the paper's ablation)
//	ArchPolling    BSD processing with interrupts disabled and the ring
//	               polled under overload (the related-work mitigation)
package core

// CostModel holds the CPU cost, in microseconds, of each processing step.
// The defaults are calibrated against the instrumentation the paper
// reports for a 60 MHz SPARCstation 20 (e.g. "hardware plus software
// interrupt, including protocol processing, approximately 60 µs"
// for BSD; "hardware interrupt, including demux, approx. 25 µs" for
// SOFT-LRP) and against the absolute throughput/latency anchors in
// Table 1 and Figure 3. EXPERIMENTS.md documents the calibration.
type CostModel struct {
	// HWIntrFixed is the per-interrupt dispatch overhead (trap entry/exit,
	// register save). Amortized over batches when packets queue up.
	HWIntrFixed int64
	// DriverPerPkt is the per-packet device-driver cost in the interrupt
	// handler: ring handling and mbuf allocation.
	DriverPerPkt int64
	// DemuxCost is one execution of the demultiplexing function (soft
	// demux in the host interrupt handler, or Early-Demux's classifier).
	DemuxCost int64
	// NICDemuxCost is the same function on the NIC's embedded CPU
	// (NI-LRP); it spends adaptor cycles, not host cycles.
	NICDemuxCost int64
	// SWDispatchFixed is the cost of raising and dispatching a software
	// interrupt (paid once per batch of packets processed at splnet).
	SWDispatchFixed int64
	// IPInCost is IP input processing for one packet (validation, routing,
	// reassembly bookkeeping).
	IPInCost int64
	// UDPInCost is UDP input processing (checksum, header).
	UDPInCost int64
	// TCPInCost is TCP segment input processing.
	TCPInCost int64
	// TCPTimerCost is processing one TCP timer expiry.
	TCPTimerCost int64
	// PCBLookupCost is the BSD protocol-control-block lookup during
	// protocol input. LRP kernels bypass it (the demux already identified
	// the socket); Fig. 5's LRP runs re-add it as a redundant lookup to
	// remove that advantage from the comparison.
	PCBLookupCost int64
	// UDPOutCost and TCPOutCost are transmit-side protocol processing
	// (header construction, checksum) per packet, excluding the copy.
	UDPOutCost int64
	TCPOutCost int64
	// IPOutCost is transmit-side IP processing per packet.
	IPOutCost int64
	// SyscallFixed is system-call entry/exit overhead.
	SyscallFixed int64
	// CopyFixed + CopyPerKB model data copies between kernel and user
	// space (and mbuf chains).
	CopyFixed int64
	CopyPerKB int64
	// ChecksumPerKB is the in-software Internet checksum cost, applied to
	// TCP segments always and to UDP datagrams unless the socket disables
	// checksumming (the paper's UDP throughput test disabled it).
	ChecksumPerKB int64
	// ChannelDequeueCost is the host cost of taking one packet off an NI
	// channel. NIChannelPenalty is added under NI-LRP, where the channel
	// lives in adaptor memory across the (slow, uncached) SBus rather
	// than in host RAM.
	ChannelDequeueCost int64
	NIChannelPenalty   int64
	// SockQueueCost is appending/removing a message on a socket queue,
	// including wakeup bookkeeping.
	SockQueueCost int64
	// CtxSwitchCost is a full process context switch.
	CtxSwitchCost int64
	// IPILatency, IPICost and MigrateCost parameterize multi-CPU hosts
	// (Config.CPUs > 1): the flight time of an inter-processor
	// interrupt, the receiving CPU's per-delivery interrupt work, and
	// the cache-refill cost a process migrated between CPUs pays on its
	// next burst. Zero values take the internal/smp defaults.
	IPILatency  int64
	IPICost     int64
	MigrateCost int64
	// RxDisturbPenalty models the cache disturbance a process suffers when
	// it resumes after interrupt-level work ran (see kernel.Proc.IntrPenalty).
	// Applied to receiver processes in the experiments; under LRP, fewer
	// interrupts mean the penalty is rarely paid.
	RxDisturbPenalty int64
	// EagerProtoPenalty is extra per-packet cost of protocol processing in
	// software-interrupt context relative to lazy processing: the softint
	// runs against a cold cache (the packet was just DMA'd and an unrelated
	// process's state occupies the cache), whereas lazy processing runs
	// immediately before the data copy, cache-warm. The paper attributes a
	// large part of LRP's throughput gain to exactly this locality
	// difference plus software-interrupt dispatch.
	EagerProtoPenalty int64

	// Queue limits.
	IPQueueLimit   int // shared IP queue (BSD): ipintrq default 50
	SockQueueLimit int // per-socket receive queue, in datagrams
	ChannelLimit   int // NI channel receive queue, in packets

	// RedundantPCBLookup makes LRP kernels perform (and pay for) the BSD
	// PCB lookup anyway, as in the paper's Fig. 5 methodology.
	RedundantPCBLookup bool

	// PollInterval/PollBatch/PollEnterThresh parameterize ArchPolling:
	// under overload (ring occupancy >= threshold at interrupt time),
	// interrupts are disabled and every PollInterval µs a poll admits at
	// most PollBatch packets; interrupts re-enable when a poll finds the
	// ring empty.
	PollInterval    int64
	PollBatch       int
	PollEnterThresh int

	// FilterStepCostNs prices one interpreted packet-filter instruction
	// (nanoseconds) when a host runs filter-based demultiplexing — the
	// related-work configuration whose "overhead is likely to be high,
	// and livelock protection poor".
	FilterStepCostNs int64

	// TimeWaitDur is TCP's 2MSL period. The paper's HTTP tests set 500 ms.
	TimeWaitDur int64

	// NICInputLimit bounds the smart NIC's input backlog (NI-LRP).
	NICInputLimit int

	// MbufPoolLimit bounds the host mbuf pool (0 = unlimited).
	MbufPoolLimit int
}

// DefaultCosts returns the calibrated cost model.
func DefaultCosts() *CostModel {
	return &CostModel{
		HWIntrFixed:        8,
		DriverPerPkt:       12,
		DemuxCost:          5,
		NICDemuxCost:       10,
		SWDispatchFixed:    8,
		IPInCost:           10,
		UDPInCost:          12,
		TCPInCost:          30,
		TCPTimerCost:       15,
		PCBLookupCost:      5,
		UDPOutCost:         18,
		TCPOutCost:         30,
		IPOutCost:          25,
		SyscallFixed:       32,
		CopyFixed:          8,
		CopyPerKB:          80,
		ChecksumPerKB:      15,
		ChannelDequeueCost: 5,
		NIChannelPenalty:   15,
		SockQueueCost:      4,
		CtxSwitchCost:      12,
		IPILatency:         2,
		IPICost:            8,
		MigrateCost:        30,
		RxDisturbPenalty:   10,
		EagerProtoPenalty:  10,
		FilterStepCostNs:   300,
		PollInterval:       500,
		PollBatch:          4,
		PollEnterThresh:    12,

		IPQueueLimit:   50,
		SockQueueLimit: 64,
		ChannelLimit:   64,

		TimeWaitDur: 30 * 1000 * 1000,

		NICInputLimit: 256,
		MbufPoolLimit: 4096,
	}
}

// CopyCost returns the cost of copying n bytes.
func (cm *CostModel) CopyCost(n int) int64 {
	return cm.CopyFixed + cm.CopyPerKB*int64(n)/1024
}

// ChecksumCost returns the cost of checksumming n bytes.
func (cm *CostModel) ChecksumCost(n int) int64 {
	return cm.ChecksumPerKB * int64(n) / 1024
}

// Arch selects a network subsystem architecture.
type Arch int

// The four architectures of the paper's evaluation, plus the vendor
// baseline used in Table 1.
const (
	// ArchBSD is the conventional 4.4BSD interrupt-driven subsystem.
	ArchBSD Arch = iota
	// ArchNILRP is LRP with demultiplexing on the network interface.
	ArchNILRP
	// ArchSoftLRP is LRP with demultiplexing in the host interrupt handler.
	ArchSoftLRP
	// ArchEarlyDemux combines early demultiplexing and early discard with
	// eager (software-interrupt) protocol processing and BSD accounting.
	ArchEarlyDemux
	// ArchPolling is the Mogul & Ramakrishnan mitigation the paper's
	// related work discusses: conventional BSD processing, but under
	// overload receive interrupts are disabled and the ring is polled
	// with a bounded per-interval quota, so excess traffic dies in the
	// ring for free. Stable like NI-LRP, but with no traffic separation
	// and no receiver accounting.
	ArchPolling
)

func (a Arch) String() string {
	switch a {
	case ArchBSD:
		return "4.4BSD"
	case ArchNILRP:
		return "NI-LRP"
	case ArchSoftLRP:
		return "SOFT-LRP"
	case ArchEarlyDemux:
		return "Early-Demux"
	case ArchPolling:
		return "Polling (M&R)"
	}
	return "?"
}

// IsLRP reports whether the architecture performs lazy receiver processing.
func (a Arch) IsLRP() bool { return a == ArchNILRP || a == ArchSoftLRP }

// SunOSForeCosts returns the cost model for the "SunOS with Fore driver"
// baseline of Table 1: the same machine with the vendor's much slower
// driver path (the paper measured ~150 µs higher round-trip latency and
// substantially lower UDP throughput and attributes it to "performance
// problems with the Fore driver").
func SunOSForeCosts() *CostModel {
	cm := DefaultCosts()
	cm.DriverPerPkt += 60 // inefficient per-packet driver work
	cm.CopyPerKB += 45    // extra data copy through driver buffers
	return cm
}
