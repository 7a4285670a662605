package core

// UDP socket system calls. The receive path is where the architectures
// diverge: under BSD and Early-Demux, datagrams were already processed by
// a software interrupt and sit in the socket queue; under LRP, raw packets
// wait on the socket's NI channel and the receive call runs IP input on
// them lazily (RecvFromStep), in the context (and at the expense) of the
// receiving process.

import (
	"errors"

	"lrp/internal/demux"
	"lrp/internal/ipv4"
	"lrp/internal/kernel"
	"lrp/internal/pkt"
	"lrp/internal/socket"
)

// Socket-layer errors.
var (
	ErrClosed       = errors.New("core: socket closed")
	ErrNotBound     = errors.New("core: socket not bound")
	ErrPortInUse    = errors.New("core: port in use")
	ErrNoBufs       = errors.New("core: out of mbufs")
	ErrConnRefused  = errors.New("core: connection refused")
	ErrConnTimedOut = errors.New("core: connection timed out")
	ErrConnReset    = errors.New("core: connection reset")
	ErrNotListening = errors.New("core: socket not listening")
)

// NewUDPSocket creates a datagram socket owned by owner.
func (h *Host) NewUDPSocket(owner *kernel.Proc) *socket.Socket {
	s := socket.NewSocket(socket.Dgram, owner)
	s.RecvDgrams = socket.NewDgramQueue(h.CM.SockQueueLimit)
	s.Local = h.Addr
	h.sockets = append(h.sockets, s)
	h.addIdleCandidate(s)
	return s
}

// BindUDP binds s to a local port (0 allocates an ephemeral port). On LRP
// hosts this also creates the socket's NI channel ("When a socket is bound
// to a local port... an NI channel is created").
func (h *Host) BindUDP(s *socket.Socket, port uint16) error {
	if s.Bound {
		return ErrPortInUse
	}
	if port == 0 {
		port = h.allocPort()
	} else if _, used := h.pcbs.LookupListen(pkt.ProtoUDP, pkt.Addr{}, port); used {
		return ErrPortInUse
	}
	s.LPort = port
	s.Bound = true
	h.pcbs.BindListen(pkt.ProtoUDP, pkt.Addr{}, port, s)
	h.registerFilter(s, demux.CompileUDPPortFilter(port))
	h.attachChannel(s)
	return nil
}

// ConnectUDP fixes the remote address of a datagram socket, installing an
// exact demultiplexing entry.
func (h *Host) ConnectUDP(s *socket.Socket, raddr pkt.Addr, rport uint16) error {
	if !s.Bound {
		if err := h.BindUDP(s, 0); err != nil {
			return err
		}
	}
	s.Remote = raddr
	s.RPort = rport
	s.Connected = true
	h.pcbs.BindConnected(pkt.ProtoUDP, h.Addr, s.LPort, raddr, rport, s)
	return nil
}

// SendTo transmits a datagram, blocking the calling process for the
// transmit-side processing charges (see SendToStep).
func (h *Host) SendTo(p *kernel.Proc, s *socket.Socket, dst pkt.Addr, dport uint16, data []byte) error {
	var fr SendToOp
	for !h.SendToStep(p, s, dst, dport, data, &fr) {
		p.Block()
	}
	return fr.Err
}

// Send transmits on a connected datagram socket.
func (h *Host) Send(p *kernel.Proc, s *socket.Socket, data []byte) error {
	if !s.Connected {
		return ErrNotBound
	}
	return h.SendTo(p, s, s.Remote, s.RPort, data)
}

// ipOutput fragments (charging per extra fragment) and queues packets on
// the interface.
func (h *Host) ipOutput(p *kernel.Proc, s *socket.Socket, b []byte) error {
	frags := [][]byte{b} //lrp:nolint hotalloc -- single-element scratch slice that does not escape: sendFrags only ranges over it
	if len(b) > ipv4.DefaultMTU {
		frags = ipv4.Fragment(b, ipv4.DefaultMTU)
		if frags == nil {
			return ErrNoBufs
		}
		if p != nil && len(frags) > 1 {
			p.ComputeSys(int64(len(frags)-1) * h.CM.IPOutCost)
		}
	}
	return h.sendFrags(s, frags)
}

// sendFrags copies each fragment into pool-owned storage and queues it on
// the interface: senders build packets in scratch buffers they reuse, so
// the mbufs must not alias them.
func (h *Host) sendFrags(s *socket.Socket, frags [][]byte) error {
	for _, f := range frags {
		m := h.Pool.AllocCopy(f)
		if m == nil {
			if s != nil {
				h.protoDrop(s)
			}
			return ErrNoBufs
		}
		if s != nil {
			s.Stats.TxPackets++
			s.Stats.TxBytes += uint64(len(f))
		}
		h.NIC.Send(m)
	}
	return nil
}

// RecvFrom blocks until a datagram is available and returns it (see
// RecvFromStep for the lazy-processing receive path).
func (h *Host) RecvFrom(p *kernel.Proc, s *socket.Socket) (socket.Datagram, error) {
	var fr RecvFromOp
	for !h.RecvFromStep(p, s, &fr) {
		p.Block()
	}
	return fr.D, fr.Err
}

// RecvFromTimeout is RecvFrom with a deadline: it returns ok=false if no
// datagram arrives within timeout µs.
func (h *Host) RecvFromTimeout(p *kernel.Proc, s *socket.Socket, timeout int64) (socket.Datagram, bool, error) {
	fr := RecvFromOp{Timed: true, Timeout: timeout}
	for !h.RecvFromStep(p, s, &fr) {
		p.Block()
	}
	return fr.D, fr.OK, fr.Err
}

// CloseUDP closes a datagram socket, releasing its port, channel and any
// queued data.
func (h *Host) CloseUDP(p *kernel.Proc, s *socket.Socket) {
	if s.Closed {
		return
	}
	if p != nil {
		p.ComputeSys(h.CM.SyscallFixed)
	}
	s.Closed = true
	if s.Bound {
		h.pcbs.UnbindListen(pkt.ProtoUDP, pkt.Addr{}, s.LPort)
		h.unregisterFilter(s)
	}
	if s.Connected {
		h.pcbs.UnbindConnected(pkt.ProtoUDP, h.Addr, s.LPort, s.Remote, s.RPort)
	}
	h.detachChannel(s)
	h.releaseSocket(s)
	s.RcvWait.WakeupAll()
}
