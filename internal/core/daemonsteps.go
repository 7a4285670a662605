package core

// Step-machine bodies for the host's kernel daemon processes: the APP
// thread, the idle-time protocol processing thread, the ICMP proxy and
// the IP forwarding daemon. Each *Step factory returns a kernel.StepFn
// whose locals live in the closure, so the scheduler can run the daemon
// stacklessly — one function call per dispatch, no goroutine switch.

import (
	"lrp/internal/kernel"
	"lrp/internal/mbuf"
	"lrp/internal/nic"
	"lrp/internal/pkt"
	"lrp/internal/sim"
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
				if len(h.appQ) == 0 {
					p.PrioProxy = nil
					p.ReqSleep(&h.appWq)
					return
				}
				w = h.appQ[0]
				h.appQ = h.appQ[1:]
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
	in    appInputOp
}

// Channel-drain machine states.
const (
	drainEnter = iota // snapshot the batch bound
	drainNext         // dequeue the next packet, charge for it
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
			fr.in = appInputOp{}
			fr.pc = drainInput
			if p.ReqComputeSysFor(fr.owner, h.channelDequeueCost()+h.lrpProtoInCost(m.Data)) {
				return false
			}
		case drainInput:
			if !h.appProtoInputStep(p, fr.m, s, &fr.in) {
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

// appInputOp is the frame of appProtoInputStep.
type appInputOp struct {
	pc      int
	b       []byte
	arrival sim.Time
	whole   []byte
	drain   fragDrainOp
	hint    *socket.Socket
	ih      pkt.IPv4Header
	seg     []byte
}

// APP protocol-input machine states.
const (
	inEnter  = iota // read the packet, run reassembly
	inDrain         // pull missing fragments off the fragment channel
	inDecode        // decode the IP header, dispatch by protocol
	inTWHint        // TIME_WAIT channel: PCB lookup charged, drop the hint
	inTCP           // hand the segment to TCP
)

// appProtoInputStep is protoInput for APP context, with fragment-channel
// support (the per-packet cost has been charged already by the drain
// machine).
func (h *Host) appProtoInputStep(p *kernel.Proc, m *mbuf.Mbuf, hint *socket.Socket, fr *appInputOp) bool {
	for {
		switch fr.pc {
		case inEnter:
			fr.hint = hint
			fr.b = m.Data
			fr.arrival = m.Arrival
			// Release the slot before input, keep storage until done. The
			// transfer spans scheduler yields, so the flow-sensitive pairing
			// check cannot follow it: every state that completes the machine
			// ends or detaches the transfer.
			m.BeginTransfer() //lrp:nolint mbufown
			whole, done := h.reasm.Input(fr.b, h.Eng.Now())
			if !done {
				fr.drain = fragDrainOp{}
				fr.pc = inDrain
				continue
			}
			fr.whole = whole
			fr.pc = inDecode
		case inDrain:
			if !h.fragDrainStep(p, appOwner(fr.hint), fr.b, &fr.drain) {
				return false
			}
			if !fr.drain.ok {
				m.EndTransfer()
				return true
			}
			fr.whole = fr.drain.whole
			fr.pc = inDecode
		case inDecode:
			ih, hlen, err := pkt.DecodeIPv4(fr.whole)
			if err != nil {
				h.stats.MalformedDrops++
				m.EndTransfer()
				return true
			}
			fr.ih = ih
			fr.seg = fr.whole[hlen:int(ih.TotalLen)]
			switch ih.Proto {
			case pkt.ProtoTCP:
				// The hint socket is the channel owner, except for the shared
				// TIME_WAIT channel where a PCB lookup is needed.
				if fr.hint != nil && fr.hint.NIChan == h.twChan {
					fr.pc = inTWHint
					if p.ReqComputeSysFor(appOwner(fr.hint), h.CM.PCBLookupCost) {
						return false
					}
					continue
				}
				fr.pc = inTCP
			case pkt.ProtoUDP:
				// Delivered datagrams alias the packet bytes; hand the mbuf
				// along so the consumer can recycle the storage.
				var own *mbuf.Mbuf
				if aliases(fr.whole, fr.b) {
					own = m
				}
				h.udpInput(&fr.ih, fr.seg, fr.arrival, fr.hint, own)
				m.EndTransfer()
				return true
			default:
				h.stats.NoMatchDrops++
				m.EndTransfer()
				return true
			}
		case inTWHint:
			fr.hint = nil
			fr.pc = inTCP
		case inTCP:
			h.tcpInput(&fr.ih, fr.seg, fr.hint) // TCP copies what it retains
			m.EndTransfer()
			return true
		}
	}
}

// Idle-thread machine states.
const (
	idleHead    = iota // start a fresh pass over the sockets
	idleIter           // find the next channel with a queued packet
	idleLazy           // protocol-process it on the owner's dime
	idleFan            // multicast: fan the datagram out to the members
	idleEnqueue        // unicast: append to the socket queue, wake receivers
	idlePass           // pass done; nap if it found nothing
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
		d     socket.Datagram
		lazy  lazyInputOp
		fan   mcastFanoutOp
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
				lazy = lazyInputOp{}
				pc = idleLazy
			case idleLazy:
				if !h.udpLazyInputStep(p, owner, socks[i], m, &lazy) {
					return
				}
				m = nil
				if !lazy.ok {
					i++
					pc = idleIter
					continue
				}
				d = lazy.d
				lazy = lazyInputOp{}
				if g := h.groupOf(socks[i]); g != nil {
					// Shared multicast channel: fan out to every member. The
					// copies share the bytes, so disown the storage first.
					if mm := d.M; mm != nil {
						d.M = nil
						mm.Detach()
						mm.EndTransfer()
					}
					fan = mcastFanoutOp{members: g.members}
					pc = idleFan
					continue
				}
				pc = idleEnqueue
				if p.ReqComputeSysFor(owner, h.CM.SockQueueCost) {
					return
				}
			case idleFan:
				if !h.mcastFanoutStep(p, d, &fan) {
					return
				}
				fan = mcastFanoutOp{}
				i++
				pc = idleIter
			case idleEnqueue:
				s := socks[i]
				if s.RecvDgrams.Enqueue(d) {
					s.RcvWait.WakeupAll()
				} else {
					h.stats.SockQDrops++
					d.Release() // queue refused; recycle the buffer now
				}
				d = socket.Datagram{}
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

// icmpdStep builds the ICMP proxy daemon body: drain the ICMP
// pseudo-socket's NI channel, charging the daemon for the processing.
func (h *Host) icmpdStep(s *socket.Socket) kernel.StepFn {
	var (
		pc int
		m  *mbuf.Mbuf
	)
	return func(p *kernel.Proc) {
		for {
			switch pc {
			case 0:
				s.Owner = p
				pc = 1
			case 1:
				m = s.NIChan.Queue.Dequeue()
				if m == nil {
					s.NIChan.IntrRequested = true
					p.ReqSleep(&s.RcvWait)
					return
				}
				pc = 2
				if p.ReqComputeSys(h.channelDequeueCost() + h.lrpProtoInCost(m.Data)) {
					return
				}
			case 2:
				b := m.Data
				m.BeginTransfer() // echo replies are built in fresh buffers
				whole, done := h.reasm.Input(b, h.Eng.Now())
				if done {
					if ih, hlen, err := pkt.DecodeIPv4(whole); err == nil {
						h.icmpProcess(&ih, whole[hlen:int(ih.TotalLen)])
					}
				}
				m.EndTransfer()
				m = nil
				pc = 1
			}
		}
	}
}

// ipfwdStep builds the IP forwarding daemon body: drain the forwarding
// pseudo-socket's NI channel, charging the daemon per forwarded packet.
func (h *Host) ipfwdStep(s *socket.Socket) kernel.StepFn {
	var (
		pc int
		m  *mbuf.Mbuf
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
				pc = 1
				if p.ReqComputeSys(h.channelDequeueCost() + h.CM.IPInCost + h.CM.IPOutCost) {
					return
				}
			case 1:
				b := m.Data
				m.BeginTransfer() // forwardPacket rebuilds into its own buffer
				h.forwardPacket(b)
				m.EndTransfer()
				m = nil
				pc = 0
			}
		}
	}
}
