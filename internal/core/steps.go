package core

// Resumable socket operations for stackless processes.
//
// Every blocking socket call in udpsock.go/tcpcalls.go is built on a step
// machine in this file (or tcpsteps.go): an exported *Op frame holding the
// operation's program counter and locals, plus a Step method the caller
// invokes repeatedly. A Step method returns true when the operation has
// completed (results live in the frame) and false when it has issued a
// scheduling request via the kernel's Req* setters — a stackless caller
// then returns to the scheduler, while a goroutine caller loops with
// p.Block(). Both drivers produce the same request stream, so scheduling,
// accounting and event order are identical in either mode (the archive
// byte-identity tests pin this).
//
// Fidelity rule: each machine replicates the exact interleaving of reads,
// mutations and yields of the blocking original it replaced — e.g. the
// receive deadline is computed before the syscall charge, and zero-cost
// charges fall through inline without yielding, exactly as the blocking
// Compute variants return without yielding.
//
// A receive call's lazy protocol processing is not in this file: the
// receiver runs the host's one IP input machine (inputStep, input.go) on
// each raw packet it takes off its NI channel, paying for it itself.

import (
	"lrp/internal/ipv4"
	"lrp/internal/kernel"
	"lrp/internal/mbuf"
	"lrp/internal/pkt"
	"lrp/internal/sim"
	"lrp/internal/socket"
)

// SendToOp is the frame of one UDP transmit (SendToStep).
type SendToOp struct {
	pc    int
	frags [][]byte

	// Err is the operation's result, valid once Step returns true.
	Err error
}

// Reset prepares the frame for a fresh transmit, keeping the fragment
// scratch so repeated sends through one frame do not allocate.
func (fr *SendToOp) Reset() {
	fr.pc = sendCharge
	fr.Err = nil
}

// SendTo machine states.
const (
	sendCharge = iota // charge the syscall + transmit-side protocol cost
	sendBuild         // build the packet, fragment, charge per extra fragment
	sendXmit          // copy fragments into mbufs and hand to the NIC
)

// SendToStep advances one UDP transmit. All architectures perform
// transmit-side processing in the sender's context, as BSD does. dst,
// dport and data must be the same values on every call for one operation.
func (h *Host) SendToStep(p *kernel.Proc, s *socket.Socket, dst pkt.Addr, dport uint16, data []byte, fr *SendToOp) bool {
	for {
		switch fr.pc {
		case sendCharge:
			if s.Closed {
				fr.Err = ErrClosed
				return true
			}
			if !s.Bound {
				if err := h.BindUDP(s, 0); err != nil {
					fr.Err = err
					return true
				}
			}
			cost := h.CM.SyscallFixed + h.CM.CopyCost(len(data)) + h.CM.UDPOutCost + h.CM.IPOutCost
			if !s.NoUDPChecksum {
				cost += h.CM.ChecksumCost(len(data))
			}
			fr.pc = sendBuild
			if p.ReqComputeSys(cost) {
				return false
			}
		case sendBuild:
			// Build into the host's scratch buffer; sendFrags copies each
			// fragment into pool-owned storage, so the scratch is free for
			// the next send.
			h.txScratch = pkt.AppendUDP(h.txScratch[:0], h.Addr, dst, s.LPort, dport, h.nextIPID(), 64, data, !s.NoUDPChecksum)
			b := h.txScratch
			fr.frags = append(fr.frags[:0], b)
			if len(b) > ipv4.DefaultMTU {
				frags := ipv4.Fragment(b, ipv4.DefaultMTU)
				if frags == nil {
					fr.Err = ErrNoBufs
					return true
				}
				fr.frags = frags
				fr.pc = sendXmit
				if len(frags) > 1 && p.ReqComputeSys(int64(len(frags)-1)*h.CM.IPOutCost) {
					return false
				}
				continue
			}
			fr.pc = sendXmit
		case sendXmit:
			fr.Err = h.sendFrags(s, fr.frags)
			return true
		}
	}
}

// RecvFromOp is the frame of one UDP receive (RecvFromStep), covering the
// plain, deadline-bounded, and multicast-member receive paths.
type RecvFromOp struct {
	// Timed selects the deadline-bounded variant; Timeout is its budget in
	// µs. Both must be set before the first Step call.
	Timed   bool
	Timeout int64

	pc       int
	deadline sim.Time
	g        *mcastGroup
	m        *mbuf.Mbuf
	in       inputOp

	// Results, valid once Step returns true: the datagram, whether one
	// arrived (false only on a Timed expiry), and any error.
	D   socket.Datagram
	OK  bool
	Err error
}

// Reset prepares the frame for a fresh receive with the same deadline
// configuration.
func (fr *RecvFromOp) Reset() {
	*fr = RecvFromOp{Timed: fr.Timed, Timeout: fr.Timeout}
}

// RecvFrom machine states.
const (
	recvStart     = iota // record the deadline, charge the syscall entry
	recvDispatch         // route to the unicast or multicast loop
	recvLoop             // unicast: poll queues or sleep
	recvLazy             // unicast: lazy protocol processing of one raw packet
	recvTimedWake        // unicast: woke from a timed sleep
	recvMcastLoop        // multicast: poll queues or sleep
	recvMcastLazy        // multicast: lazy processing and fan-out on the shared channel
	recvDone             // final copy-out charge issued
)

// RecvFromStep advances one UDP receive. Under LRP, protocol processing
// for queued raw packets happens here — "in the context of the user
// process performing the system call".
func (h *Host) RecvFromStep(p *kernel.Proc, s *socket.Socket, fr *RecvFromOp) bool {
	for {
		switch fr.pc {
		case recvStart:
			if fr.Timed {
				fr.deadline = h.Eng.Now() + fr.Timeout
			}
			fr.pc = recvDispatch
			if p.ReqComputeSys(h.CM.SyscallFixed) {
				return false
			}
		case recvDispatch:
			if !fr.Timed {
				if g := h.mcastMember[s]; g != nil {
					fr.g = g
					fr.pc = recvMcastLoop
					continue
				}
			}
			fr.pc = recvLoop
		case recvLoop:
			if s.Closed {
				fr.Err = ErrClosed
				return true
			}
			// Already-processed datagrams first (softint under BSD/Early-
			// Demux; the idle thread under LRP).
			if d, ok := s.RecvDgrams.Dequeue(); ok {
				fr.D = d
				fr.OK = true
				fr.pc = recvDone
				if p.ReqComputeSys(h.CM.SockQueueCost + h.CM.CopyCost(len(d.Data))) {
					return false
				}
				continue
			}
			// LRP lazy path: raw packets on the NI channel.
			if s.NIChan != nil {
				if m := s.NIChan.Queue.Dequeue(); m != nil {
					fr.m = m
					fr.in = inputOp{recv: true}
					fr.pc = recvLazy
					continue
				}
				s.NIChan.IntrRequested = true
			}
			if fr.Timed {
				remain := fr.deadline - h.Eng.Now()
				if remain <= 0 {
					return true // OK=false: deadline passed
				}
				fr.pc = recvTimedWake
				p.ReqSleepTimeout(&s.RcvWait, remain)
				return false
			}
			p.ReqSleep(&s.RcvWait)
			return false
		case recvTimedWake:
			if p.TimedOut() {
				return true // OK=false: timed out while asleep
			}
			fr.pc = recvLoop
		case recvLazy:
			if !h.inputStep(p, p, s, fr.m, &fr.in) {
				return false
			}
			fr.m = nil
			if !fr.in.ok {
				fr.pc = recvLoop // bad packet; keep trying
				continue
			}
			fr.D = fr.in.d
			fr.OK = true
			fr.pc = recvDone
			if p.ReqComputeSys(h.CM.CopyCost(len(fr.D.Data))) {
				return false
			}
		case recvMcastLoop:
			// Member-socket receive: drain the member queue, else lazily
			// process the group's shared channel and fan out.
			if s.Closed {
				fr.Err = ErrClosed
				return true
			}
			if d, ok := s.RecvDgrams.Dequeue(); ok {
				fr.D = d
				fr.OK = true
				fr.pc = recvDone
				if p.ReqComputeSys(h.CM.SockQueueCost + h.CM.CopyCost(len(d.Data))) {
					return false
				}
				continue
			}
			if ch := fr.g.gsock.NIChan; ch != nil {
				if m := ch.Queue.Dequeue(); m != nil {
					fr.m = m
					fr.in = inputOp{}
					fr.pc = recvMcastLazy
					continue
				}
				fr.g.gsock.Owner = fr.g.bestOwner()
				ch.IntrRequested = true
			}
			p.ReqSleep(&s.RcvWait)
			return false
		case recvMcastLazy:
			// The group socket's datagram fans out to every member.
			if !h.inputStep(p, p, fr.g.gsock, fr.m, &fr.in) {
				return false
			}
			fr.m = nil
			fr.pc = recvMcastLoop // our own queue now holds the datagram
		case recvDone:
			return true
		}
	}
}
