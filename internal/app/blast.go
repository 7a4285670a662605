// Package app implements the workloads of the paper's evaluation: UDP
// blast sources and sinks, ping-pong latency probes, a sliding-window UDP
// throughput test, a UDP RPC facility, an HTTP/1.0-style server and
// clients, a SYN flooder, and background compute processes. Each maps to
// the traffic the paper describes; the experiment drivers in internal/exp
// assemble them into the published tables and figures.
package app

import (
	"lrp/internal/core"
	"lrp/internal/kernel"
	"lrp/internal/mbuf"
	"lrp/internal/metrics"
	"lrp/internal/netsim"
	"lrp/internal/pkt"
	"lrp/internal/sim"
	"lrp/internal/socket"
)

// BlastSource injects fixed-rate UDP traffic directly onto the wire, like
// the paper's in-kernel packet source ("we have been unable to generate
// high enough packet rates ... even when using an in-kernel packet source
// on the sender" — a user-space sender would bottleneck first).
type BlastSource struct {
	Net   *netsim.Network
	Src   pkt.Addr
	Dst   pkt.Addr
	SPort uint16
	DPort uint16
	Size  int   // UDP payload bytes (the paper used 14)
	Rate  int64 // packets per second
	// Poisson selects exponentially distributed inter-packet gaps (the
	// natural burstiness of real traffic, which drives interrupt batching
	// and queue-overflow behaviour below saturation); otherwise gaps are
	// uniform within ±Jitter.
	Poisson bool
	Jitter  float64
	Rng     *sim.Rand

	Sent    metrics.Counter
	stopped bool
	ipid    uint16
	pool    *mbuf.Pool
	// emit is the single reusable firing thunk; rebuilding it per packet
	// would allocate a closure on every emission.
	emit func()
}

// Start begins injection; call Stop to end it.
func (b *BlastSource) Start() {
	if b.Rng == nil {
		b.Rng = sim.NewRand(1)
	}
	if b.Jitter == 0 {
		b.Jitter = 0.3
	}
	b.pool = mbuf.NewPool(0)
	b.emit = func() {
		if b.stopped {
			return
		}
		b.ipid++
		b.Sent.Inc()
		injectUDP(b.Net, b.pool, b.Src, b.Dst, b.SPort, b.DPort, b.ipid, b.Size)
		b.schedule()
	}
	b.schedule()
}

// Stop halts injection.
func (b *BlastSource) Stop() { b.stopped = true }

func (b *BlastSource) schedule() {
	if b.stopped || b.Rate <= 0 {
		return
	}
	gap := sim.Second / b.Rate
	if gap < 1 {
		gap = 1
	}
	if b.Poisson {
		gap = b.Rng.ExpDuration(gap)
	} else {
		gap = b.Rng.Jitter(gap, b.Jitter)
	}
	b.Net.Eng.After(gap, b.emit)
}

// BlastSink is the receiving process: it reads datagrams as fast as it can
// and discards them, optionally spending PerPktCompute per packet.
type BlastSink struct {
	Host *core.Host
	Port uint16
	// PerPktCompute is application work per packet (µs).
	PerPktCompute int64
	// DisturbPenalty sets the receiver's interrupt cache-disturbance
	// penalty (see kernel.Proc.IntrPenalty).
	DisturbPenalty int64
	// CPU is the simulated CPU the sink process is spawned on (multi-CPU
	// hosts; 0 — the boot CPU — otherwise).
	CPU int

	Received metrics.Counter
	Proc     *kernel.Proc
	Sock     *socket.Socket
}

// Start spawns the sink process.
func (s *BlastSink) Start() {
	var (
		pc   int
		recv core.RecvFromOp
	)
	s.Proc = s.Host.KernelAt(s.CPU).SpawnStep("blast-sink", 0, func(p *kernel.Proc) {
		for {
			switch pc {
			case 0:
				p.IntrPenalty = s.DisturbPenalty
				s.Sock = s.Host.NewUDPSocket(p)
				if err := s.Host.BindUDP(s.Sock, s.Port); err != nil {
					panic(err)
				}
				pc = 1
			case 1:
				if !s.Host.RecvFromStep(p, s.Sock, &recv) {
					return
				}
				if recv.Err != nil {
					p.ReqExit()
					return
				}
				recv.D.Release() // the sink discards the payload
				recv.Reset()
				s.Received.Inc()
				if p.ReqCompute(s.PerPktCompute) {
					return
				}
			}
		}
	})
}

// Spinner is a low-priority compute-bound background process ("the
// machines involved in the ping-pong exchange were each running a
// low-priority (nice +20) background process executing an infinite
// loop"), used to keep the CPU out of the idle loop.
func Spinner(h *core.Host, name string) *kernel.Proc {
	return h.K.SpawnStep(name, 20, func(p *kernel.Proc) {
		p.ReqCompute(10 * sim.Millisecond)
	})
}
