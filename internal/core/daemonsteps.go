package core

// Step-machine bodies for the host's kernel daemon processes: the APP
// thread, the idle-time protocol processing thread, and the protocol
// proxies (the ICMP proxy and the IP forwarding daemon). Each *Step
// factory returns a kernel.StepFn whose locals live in the closure, so the
// scheduler can run the daemon stacklessly — one function call per
// dispatch, no goroutine switch. Every daemon hands its packets to the
// one IP input machine (inputStep).

import (
	"lrp/internal/kernel"
	"lrp/internal/mbuf"
	"lrp/internal/nic"
	"lrp/internal/pkt"
	"lrp/internal/socket"
)

// APP thread machine states.
const (
	appHead  = iota // pop the next work item or sleep
	appTimer        // run a validated timer expiry
	appDrain        // drain one socket's NI channel
)

// appMainStep builds the APP kernel thread body: it processes queued TCP
// packets and timer expiries at the priority of — and charged to — the
// application that owns the socket.
func (h *Host) appMainStep() kernel.StepFn {
	var (
		pc    int
		w     appWork
		drain appDrainOp
	)
	return func(p *kernel.Proc) {
		for {
			switch pc {
			case appHead:
				var ok bool
				if w, ok = h.appQ.Dequeue(); !ok {
					p.PrioProxy = nil
					p.ReqSleep(&h.appWq)
					return
				}
				switch {
				case w.conn != nil:
					owner := appOwner(connSocket(w.conn))
					p.PrioProxy = owner
					pc = appTimer
					if p.ReqComputeSysFor(owner, h.CM.TCPTimerCost) {
						return
					}
				case w.sock != nil:
					drain = appDrainOp{}
					pc = appDrain
				}
			case appTimer:
				if h.timerValid(w.conn, w.timer, w.gen) {
					w.conn.TimerExpire(w.timer)
				}
				w = appWork{}
				pc = appHead
			case appDrain:
				if !h.appDrainStep(p, w.sock, &drain) {
					return
				}
				drain = appDrainOp{}
				w = appWork{}
				pc = appHead
			}
		}
	}
}

// appDrainOp is the frame of one channel drain by the APP thread.
type appDrainOp struct {
	pc    int
	ch    *nic.Channel
	owner *kernel.Proc
	batch int
	i     int
	m     *mbuf.Mbuf
	in    inputOp
}

// Channel-drain machine states.
const (
	drainEnter = iota // snapshot the batch bound
	drainNext         // dequeue the next packet
	drainInput        // protocol-process it; police the listen backlog
	drainExit         // re-queue leftovers or re-arm the interrupt
)

// appDrainStep processes the packets queued on a socket's NI channel.
// The batch is bounded to the queue depth at entry: a channel being
// refilled as fast as it drains (e.g. a SYN flood) must not capture the
// APP thread forever and starve other sockets' protocol processing, so
// remaining work is re-queued behind them instead. Listener backlog state
// is synchronized after every packet, so a filling backlog disables the
// channel immediately rather than after the flood abates.
func (h *Host) appDrainStep(p *kernel.Proc, s *socket.Socket, fr *appDrainOp) bool {
	for {
		switch fr.pc {
		case drainEnter:
			fr.ch = s.NIChan
			if fr.ch == nil {
				return true
			}
			fr.owner = appOwner(s)
			p.PrioProxy = fr.owner
			fr.batch = fr.ch.Queue.Len()
			fr.pc = drainNext
		case drainNext:
			if fr.i >= fr.batch {
				fr.pc = drainExit
				continue
			}
			m := fr.ch.Queue.Dequeue()
			if m == nil {
				fr.pc = drainExit
				continue
			}
			fr.m = m
			fr.in = inputOp{}
			fr.pc = drainInput
		case drainInput:
			if !h.inputStep(p, fr.owner, s, fr.m, &fr.in) {
				return false
			}
			fr.m = nil
			if s.Listening {
				h.syncListenChannel(s)
				if fr.ch.ProcessingDisabled {
					// Over-backlog: the remaining queued SYNs are discarded
					// like the ones now dying at the channel.
					for {
						r := fr.ch.Queue.Dequeue()
						if r == nil {
							break
						}
						fr.ch.DisabledDrops++
						r.Free()
					}
					fr.pc = drainExit
					continue
				}
			}
			fr.i++
			fr.pc = drainNext
		case drainExit:
			h.syncListenChannel(s)
			if fr.ch.Queue.Len() > 0 && !fr.ch.ProcessingDisabled {
				h.queueChannelWork(s)
				return true
			}
			if s.Type == socket.Stream {
				fr.ch.IntrRequested = true
			}
			return true
		}
	}
}

// Idle-thread machine states.
const (
	idleHead  = iota // start a fresh pass over the sockets
	idleIter         // find the next channel with a queued packet
	idleInput        // protocol-process it on the owner's dime
	idlePass         // pass done; nap if it found nothing
)

// addIdleCandidate enters a UDP datagram socket on the idle thread's
// candidate list. Hosts without an idle thread keep no list.
func (h *Host) addIdleCandidate(s *socket.Socket) {
	if h.idleProc != nil {
		h.idleSocks = append(h.idleSocks, s)
	}
}

// pruneIdleSocks drops closed sockets from the idle candidate list in
// place. Only idleHead calls it: the previous pass's snapshot is dead
// there, so no live snapshot sees the backing array shift.
func (h *Host) pruneIdleSocks() {
	live := h.idleSocks[:0]
	for _, s := range h.idleSocks {
		if !s.Closed {
			live = append(live, s)
		}
	}
	clear(h.idleSocks[len(live):]) // let closed sockets be collected
	h.idleSocks = live
}

// idleMainStep builds the minimum-priority kernel thread that "checks NI
// channels and performs protocol processing for any queued UDP packets"
// so that an otherwise idle CPU never leaves a packet waiting for the
// next receive system call.
//
// A pass walks a snapshot of the UDP candidate list, not every socket
// the host ever created: the skipped sockets cost no simulated time, so
// the thread makes the same requests on the same sockets in the same
// order. A socket created during a pass is first visited in the next
// one; a socket closed during a pass is skipped when the scan reaches it.
func (h *Host) idleMainStep() kernel.StepFn {
	var (
		pc    int
		socks []*socket.Socket
		i     int
		did   bool
		m     *mbuf.Mbuf
		owner *kernel.Proc
		in    inputOp
	)
	return func(p *kernel.Proc) {
		for {
			switch pc {
			case idleHead:
				h.pruneIdleSocks()
				socks = h.idleSocks
				i = 0
				did = false
				pc = idleIter
			case idleIter:
				if i >= len(socks) {
					pc = idlePass
					continue
				}
				s := socks[i]
				if s.Type != socket.Dgram || s.Closed || s.NIChan == nil || s.Proto != pkt.ProtoUDP {
					i++
					continue
				}
				// Leave the packet if a receiver is about to pick it up
				// lazily: a blocked receiver means nobody is in a receive
				// call, so process on its behalf.
				m = s.NIChan.Queue.Dequeue()
				if m == nil {
					i++
					continue
				}
				did = true
				owner = appOwner(s)
				in = inputOp{}
				pc = idleInput
			case idleInput:
				// Queue the datagram on the socket (or fan it out to a
				// multicast group), charged to its owner.
				if !h.inputStep(p, owner, socks[i], m, &in) {
					return
				}
				m = nil
				i++
				pc = idleIter
			case idlePass:
				pc = idleHead
				if !did {
					if p.ReqDelay(idlePollInterval) {
						return
					}
				}
			}
		}
	}
}

// proxyStep builds the body of a protocol proxy daemon — the ICMP proxy
// or the IP forwarding daemon: drain the pseudo-socket's NI channel
// through IP input, charging the daemon for the processing. A transit
// packet's protocol cost is IP input plus output (protoInCost), exactly
// a forwarding daemon's work per packet.
func (h *Host) proxyStep(s *socket.Socket) kernel.StepFn {
	var (
		pc int
		m  *mbuf.Mbuf
		in inputOp
	)
	return func(p *kernel.Proc) {
		for {
			switch pc {
			case 0:
				m = s.NIChan.Queue.Dequeue()
				if m == nil {
					s.NIChan.IntrRequested = true
					p.ReqSleep(&s.RcvWait)
					return
				}
				in = inputOp{}
				pc = 1
			case 1:
				if !h.inputStep(p, p, s, m, &in) {
					return
				}
				m = nil
				pc = 0
			}
		}
	}
}
