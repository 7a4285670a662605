package core

// TCP system calls. As in the paper, transmit-side processing happens in
// the sender's context; receive-side processing happens in softint context
// (BSD/Early-Demux) or in the APP thread (LRP), so these calls mainly
// block on protocol events.

import (
	"lrp/internal/kernel"
	"lrp/internal/pkt"
	"lrp/internal/socket"
	"lrp/internal/tcp"
)

// NewTCPSocket creates a stream socket owned by owner. The socket lives in
// a record that also holds the connection it will listen or connect with.
func (h *Host) NewTCPSocket(owner *kernel.Proc) *socket.Socket {
	s := &h.newConnRec(owner).sock
	h.sockets = append(h.sockets, s)
	return s
}

// BindTCP reserves a local TCP port for s (0 allocates ephemeral).
func (h *Host) BindTCP(s *socket.Socket, port uint16) error {
	if s.Bound {
		return ErrPortInUse
	}
	if port == 0 {
		port = h.allocPort()
	} else if _, used := h.pcbs.LookupListen(pkt.ProtoTCP, pkt.Addr{}, port); used {
		return ErrPortInUse
	}
	s.LPort = port
	s.Bound = true
	return nil
}

// Listen puts s into the listening state with the given backlog, binding
// the wildcard demux entry and (LRP) the listen channel. p may be nil —
// the machine then never yields (see ListenStep).
func (h *Host) Listen(p *kernel.Proc, s *socket.Socket, backlog int) error {
	var fr ListenOp
	for !h.ListenStep(p, s, backlog, &fr) {
		p.Block()
	}
	return fr.Err
}

// Accept blocks until an established connection is available on listener
// l and returns its socket.
func (h *Host) Accept(p *kernel.Proc, l *socket.Socket) (*socket.Socket, error) {
	var fr AcceptOp
	for !h.AcceptStep(p, l, &fr) {
		p.Block()
	}
	return fr.NS, fr.Err
}

// ConnectTCP performs an active open and blocks until the connection is
// established or fails.
func (h *Host) ConnectTCP(p *kernel.Proc, s *socket.Socket, raddr pkt.Addr, rport uint16) error {
	var fr ConnectTCPOp
	for !h.ConnectTCPStep(p, s, raddr, rport, &fr) {
		p.Block()
	}
	return fr.Err
}

// SendStream writes data on a connected stream socket, blocking until all
// of it is accepted by the send buffer.
func (h *Host) SendStream(p *kernel.Proc, s *socket.Socket, data []byte) (int, error) {
	fr := SendStreamOp{Data: data}
	for !h.SendStreamStep(p, s, &fr) {
		p.Block()
	}
	return fr.Total, fr.Err
}

// RecvStream reads up to max bytes, blocking until data, EOF, or error.
// It returns n==0 with nil error at end of stream.
func (h *Host) RecvStream(p *kernel.Proc, s *socket.Socket, max int) ([]byte, error) {
	var fr RecvStreamOp
	for !h.RecvStreamStep(p, s, max, &fr) {
		p.Block()
	}
	return fr.Data, fr.Err
}

// CloseTCP closes a stream socket: orderly close for connections, released
// state for listeners. p may be nil — the machine then never yields.
func (h *Host) CloseTCP(p *kernel.Proc, s *socket.Socket) {
	var fr CloseTCPOp
	for !h.CloseTCPStep(p, s, &fr) {
		p.Block()
	}
}

// AbortTCP resets the connection immediately.
func (h *Host) AbortTCP(p *kernel.Proc, s *socket.Socket) {
	if c, ok := s.Conn.(*tcp.Conn); ok {
		if p != nil {
			p.ComputeSys(h.CM.SyscallFixed + h.CM.TCPOutCost)
		}
		c.Abort() // the connection's death releases the socket
	} else {
		h.releaseSocket(s)
	}
	s.Closed = true
}

// ConnOf returns the TCP connection behind a stream socket (nil if none).
func ConnOf(s *socket.Socket) *tcp.Conn {
	if c, ok := s.Conn.(*tcp.Conn); ok {
		return c
	}
	return nil
}
