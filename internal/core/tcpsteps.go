package core

// Step machines for the TCP system calls (see steps.go for the calling
// convention). Transmit-side processing happens in the caller's context;
// receive-side processing happens in softint context (BSD/Early-Demux) or
// in the APP thread (LRP), so these machines mainly block on protocol
// events.

import (
	"lrp/internal/demux"
	"lrp/internal/kernel"
	"lrp/internal/pkt"
	"lrp/internal/socket"
	"lrp/internal/tcp"
)

// ListenOp is the frame of one Listen call (ListenStep).
type ListenOp struct {
	pc  int
	Err error
}

// ListenStep puts s into the listening state with the given backlog,
// binding the wildcard demux entry and (LRP) the listen channel. p may be
// nil (setup code outside process context); a nil p never yields. s must
// come from NewTCPSocket and have no connection yet: a socket already
// listening or connected, an accepted one, or one made by
// socket.NewSocket fails with ErrConnOpen.
func (h *Host) ListenStep(p *kernel.Proc, s *socket.Socket, backlog int, fr *ListenOp) bool {
	for {
		switch fr.pc {
		case 0:
			if !s.Bound {
				if err := h.BindTCP(s, 0); err != nil {
					fr.Err = err
					return true
				}
			}
			fr.pc = 1
			if p != nil && p.ReqComputeSys(h.CM.SyscallFixed) {
				return false
			}
		case 1:
			r := unopenedRec(s)
			if r == nil {
				fr.Err = ErrConnOpen
				return true
			}
			h.openConn(r, pkt.Addr{}, 0).ListenOn(backlog)
			s.Listening = true
			s.Backlog = backlog
			h.pcbs.BindListen(pkt.ProtoTCP, pkt.Addr{}, s.LPort, s)
			h.registerFilter(s, demux.CompileTCPPortFilter(s.LPort))
			h.attachChannel(s, r)
			return true
		}
	}
}

// AcceptOp is the frame of one Accept call (AcceptStep).
type AcceptOp struct {
	pc int

	// Results, valid once Step returns true.
	NS  *socket.Socket
	Err error
}

// AcceptStep completes when an established connection is available on
// listener l, delivering its socket in NS.
func (h *Host) AcceptStep(p *kernel.Proc, l *socket.Socket, fr *AcceptOp) bool {
	for {
		switch fr.pc {
		case 0:
			if !l.Listening {
				fr.Err = ErrNotListening
				return true
			}
			fr.pc = 1
			if p.ReqComputeSys(h.CM.SyscallFixed) {
				return false
			}
		case 1:
			if l.Closed {
				fr.Err = ErrClosed
				return true
			}
			lc := l.Conn.(*tcp.Conn)
			if nc, ok := lc.Accept(); ok {
				h.syncListenChannel(l)
				ns := connSocket(nc)
				ns.Connected = true
				fr.NS = ns
				return true
			}
			p.ReqSleep(&l.AcceptWait)
			return false
		}
	}
}

// ConnectTCPOp is the frame of one active open (ConnectTCPStep).
type ConnectTCPOp struct {
	pc  int
	c   *tcp.Conn
	Err error
}

// ConnectTCP machine states.
const (
	connBind = iota // bind, charge syscall + SYN transmit
	connOpen        // create the connection and send the SYN
	connWait        // wait for establishment or failure
)

// ConnectTCPStep performs an active open, completing when the connection
// is established or has failed. As for ListenStep, s must come from
// NewTCPSocket and have no connection yet, or the call fails with
// ErrConnOpen.
func (h *Host) ConnectTCPStep(p *kernel.Proc, s *socket.Socket, raddr pkt.Addr, rport uint16, fr *ConnectTCPOp) bool {
	for {
		switch fr.pc {
		case connBind:
			if !s.Bound {
				if err := h.BindTCP(s, 0); err != nil {
					fr.Err = err
					return true
				}
			}
			fr.pc = connOpen
			if p.ReqComputeSys(h.CM.SyscallFixed + h.CM.TCPOutCost + h.CM.IPOutCost) {
				return false
			}
		case connOpen:
			r := unopenedRec(s)
			if r == nil {
				fr.Err = ErrConnOpen
				return true
			}
			s.Remote = raddr
			s.RPort = rport
			c := h.openConn(r, raddr, rport)
			h.pcbs.BindConnected(pkt.ProtoTCP, h.Addr, s.LPort, raddr, rport, s)
			h.attachChannel(s, r)
			c.Connect()
			fr.c = c
			fr.pc = connWait
		case connWait:
			switch fr.c.State {
			case tcp.Established:
				s.Connected = true
				return true
			case tcp.Closed:
				fr.Err = ErrConnRefused
				return true
			}
			p.ReqSleep(&s.SndWait)
			return false
		}
	}
}

// SendStreamOp is the frame of one stream write (SendStreamStep). Data
// must be set before the first Step call; the machine consumes it as the
// send buffer accepts bytes.
type SendStreamOp struct {
	// Data is the remaining unwritten portion of the caller's buffer.
	Data []byte

	pc int
	c  *tcp.Conn

	// Results, valid once Step returns true.
	Total int
	Err   error
}

// SendStreamStep writes Data on a connected stream socket, completing
// when all of it has been accepted by the send buffer.
func (h *Host) SendStreamStep(p *kernel.Proc, s *socket.Socket, fr *SendStreamOp) bool {
	for {
		switch fr.pc {
		case 0:
			c, ok := s.Conn.(*tcp.Conn)
			if !ok {
				fr.Err = ErrNotBound
				return true
			}
			fr.c = c
			fr.pc = 1
			if p.ReqComputeSys(h.CM.SyscallFixed) {
				return false
			}
		case 1:
			if len(fr.Data) == 0 {
				return true
			}
			if s.Closed {
				fr.Err = ErrClosed
				return true
			}
			switch fr.c.State {
			case tcp.Closed:
				fr.Err = ErrConnReset
				return true
			case tcp.Established, tcp.CloseWait:
			default:
				fr.Err = ErrClosed
				return true
			}
			n := fr.c.Write(fr.Data)
			if n > 0 {
				segs := int64(n/fr.c.MSS) + 1
				fr.Total += n
				fr.Data = fr.Data[n:]
				if p.ReqComputeSys(h.CM.CopyCost(n) + h.CM.ChecksumCost(n) + segs*(h.CM.TCPOutCost+h.CM.IPOutCost)) {
					return false
				}
				continue
			}
			p.ReqSleep(&s.SndWait)
			return false
		}
	}
}

// RecvStreamOp is the frame of one stream read (RecvStreamStep).
type RecvStreamOp struct {
	// Buf, when set, receives the bytes read: Data is then Buf[:n], and
	// the read allocates nothing. A read moves at most max bytes, so Buf
	// should be at least max long. Without Buf, Data is a new slice.
	Buf []byte

	pc int
	c  *tcp.Conn

	// Results, valid once Step returns true. Data is nil with a nil Err at
	// end of stream.
	Data []byte
	Err  error
}

// RecvStreamStep reads up to max bytes, completing on data, EOF, or
// error.
func (h *Host) RecvStreamStep(p *kernel.Proc, s *socket.Socket, max int, fr *RecvStreamOp) bool {
	for {
		switch fr.pc {
		case 0:
			c, ok := s.Conn.(*tcp.Conn)
			if !ok {
				fr.Err = ErrNotBound
				return true
			}
			fr.c = c
			fr.pc = 1
			if p.ReqComputeSys(h.CM.SyscallFixed) {
				return false
			}
		case 1:
			if s.Closed {
				fr.Err = ErrClosed
				return true
			}
			n, fin := fr.c.Readable()
			if n > 0 {
				if b := fr.Buf; b != nil {
					if len(b) > max {
						b = b[:max]
					}
					fr.Data = b[:fr.c.ReadInto(b)]
				} else {
					fr.Data = fr.c.Read(max)
				}
				fr.pc = 2
				if p.ReqComputeSys(h.CM.CopyCost(len(fr.Data))) {
					return false
				}
				continue
			}
			if fin {
				return true // EOF: Data nil, Err nil
			}
			if fr.c.State == tcp.Closed {
				fr.Err = ErrConnReset
				return true
			}
			p.ReqSleep(&s.RcvWait)
			return false
		case 2:
			return true
		}
	}
}

// CloseTCPOp is the frame of one stream close (CloseTCPStep).
type CloseTCPOp struct {
	pc int
}

// CloseTCPStep closes a stream socket: orderly close for connections,
// released state for listeners. p may be nil; a nil p never yields.
func (h *Host) CloseTCPStep(p *kernel.Proc, s *socket.Socket, fr *CloseTCPOp) bool {
	for {
		switch fr.pc {
		case 0:
			if s.Closed {
				return true
			}
			fr.pc = 1
			if p != nil && p.ReqComputeSys(h.CM.SyscallFixed) {
				return false
			}
		case 1:
			if c, ok := s.Conn.(*tcp.Conn); ok {
				if s.Listening {
					s.Closed = true
					c.Close() // triggers Dealloc, which unbinds
				} else {
					c.Close()
					// The socket stays usable for draining received data until
					// the protocol finishes; mark it closed for new operations
					// only when fully dead.
				}
			} else {
				s.Closed = true
				h.releaseSocket(s)
			}
			s.AcceptWait.WakeupAll()
			return true
		}
	}
}
