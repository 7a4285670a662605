package app

import (
	"encoding/binary"

	"lrp/internal/core"
	"lrp/internal/kernel"
	"lrp/internal/metrics"
	"lrp/internal/pkt"
	"lrp/internal/sim"
	"lrp/internal/socket"
)

// UDPWindowReceiver acknowledges each datagram by sequence number; the
// paper measured UDP throughput "using a simple sliding-window protocol"
// with checksumming disabled.
type UDPWindowReceiver struct {
	Host *core.Host
	Port uint16

	Bytes metrics.Counter
	Pkts  metrics.Counter
	Proc  *kernel.Proc
}

// Start spawns the receiver.
func (r *UDPWindowReceiver) Start() {
	var (
		pc   int
		sock *socket.Socket
		ack  []byte
		d    socket.Datagram
		recv core.RecvFromOp
		send core.SendToOp
	)
	r.Proc = r.Host.K.SpawnStep("udpwin-rx", 0, func(p *kernel.Proc) {
		for {
			switch pc {
			case 0:
				sock = r.Host.NewUDPSocket(p)
				sock.NoUDPChecksum = true // per the paper's methodology
				if err := r.Host.BindUDP(sock, r.Port); err != nil {
					panic(err)
				}
				ack = make([]byte, 4)
				pc = 1
			case 1:
				if !r.Host.RecvFromStep(p, sock, &recv) {
					return
				}
				if recv.Err != nil {
					p.ReqExit()
					return
				}
				d = recv.D
				recv.Reset()
				r.Bytes.Addn(uint64(len(d.Data)))
				r.Pkts.Inc()
				if len(d.Data) >= 4 {
					copy(ack, d.Data[:4])
					d.Release() // seq copied into the ack buffer
					send.Reset()
					pc = 2
				} else {
					d.Release() // runt datagram; nothing to ack
				}
			case 2:
				if !r.Host.SendToStep(p, sock, d.Src, d.SPort, ack, &send) {
					return
				}
				if send.Err != nil {
					p.ReqExit()
					return
				}
				pc = 1
			}
		}
	})
}

// UDPWindowSender keeps Window datagrams of Size bytes outstanding toward
// the receiver, resending on a coarse timeout (losses are rare on the
// clean simulated LAN; the protocol exists to pace the sender, as in the
// paper).
type UDPWindowSender struct {
	Host       *core.Host
	PeerAddr   pkt.Addr
	PeerPort   uint16
	Size       int
	Window     int
	TotalBytes int64 // stop after this much (0: run forever)

	Sent     metrics.Counter
	Finished bool
	Proc     *kernel.Proc
}

// Start spawns the sender.
func (s *UDPWindowSender) Start() {
	if s.Size == 0 {
		s.Size = 8192
	}
	if s.Window == 0 {
		s.Window = 8
	}
	var (
		pc        int
		sock      *socket.Socket
		payload   []byte
		seq, ackd uint32
		sentBytes int64
		recv      core.RecvFromOp
		send      core.SendToOp
	)
	s.Proc = s.Host.K.SpawnStep("udpwin-tx", 0, func(p *kernel.Proc) {
		for {
			switch pc {
			case 0:
				sock = s.Host.NewUDPSocket(p)
				sock.NoUDPChecksum = true // per the paper's methodology
				if err := s.Host.BindUDP(sock, 0); err != nil {
					panic(err)
				}
				payload = make([]byte, s.Size)
				recv = core.RecvFromOp{Timed: true, Timeout: 200 * sim.Millisecond}
				pc = 1
			case 1:
				if int(seq-ackd) < s.Window && (s.TotalBytes == 0 || sentBytes < s.TotalBytes) {
					binary.BigEndian.PutUint32(payload, seq)
					seq++
					sentBytes += int64(len(payload))
					s.Sent.Inc()
					send.Reset()
					pc = 2
				} else if s.TotalBytes > 0 && sentBytes >= s.TotalBytes && ackd == seq {
					s.Finished = true
					p.ReqExit()
					return
				} else {
					recv.Reset()
					pc = 3
				}
			case 2:
				if !s.Host.SendToStep(p, sock, s.PeerAddr, s.PeerPort, payload, &send) {
					return
				}
				pc = 1 // send errors are ignored, as in the blocking sender
			case 3:
				if !s.Host.RecvFromStep(p, sock, &recv) {
					return
				}
				if recv.Err != nil {
					p.ReqExit()
					return
				}
				pc = 1
				if !recv.OK {
					// Timeout: go back to the last acknowledged datagram.
					seq = ackd
					sentBytes = int64(ackd) * int64(s.Size)
					continue
				}
				if len(recv.D.Data) >= 4 {
					a := binary.BigEndian.Uint32(recv.D.Data) + 1
					if a > ackd {
						ackd = a
					}
				}
				recv.D.Release() // ack consumed
			}
		}
	})
}

// TCPTransfer moves TotalBytes over one connection and records the elapsed
// time ("TCP throughput was measured by transferring 24 Mbytes of data,
// with the socket send and receive buffers set to 32 KByte").
type TCPTransfer struct {
	Server     *core.Host
	Client     *core.Host
	ServerAddr pkt.Addr
	Port       uint16
	TotalBytes int

	Received int
	Started  sim.Time
	Ended    sim.Time
	Done     bool
}

// Start spawns both sides.
func (x *TCPTransfer) Start() {
	var (
		rpc int
		l   *socket.Socket
		cs  *socket.Socket
		lis core.ListenOp
		acc core.AcceptOp
		rs  core.RecvStreamOp
	)
	x.Server.K.SpawnStep("tcpxfer-rx", 0, func(p *kernel.Proc) {
		for {
			switch rpc {
			case 0:
				l = x.Server.NewTCPSocket(p)
				if err := x.Server.BindTCP(l, x.Port); err != nil {
					panic(err)
				}
				rpc = 1
			case 1:
				if !x.Server.ListenStep(p, l, 5, &lis) {
					return
				}
				if lis.Err != nil {
					panic(lis.Err)
				}
				rpc = 2
			case 2:
				if !x.Server.AcceptStep(p, l, &acc) {
					return
				}
				if acc.Err != nil {
					p.ReqExit()
					return
				}
				cs = acc.NS
				rpc = 3
			case 3:
				if !x.Server.RecvStreamStep(p, cs, 64*1024, &rs) {
					return
				}
				if rs.Err != nil || rs.Data == nil {
					x.Ended = p.Now()
					x.Done = true
					p.ReqExit()
					return
				}
				x.Received += len(rs.Data)
				rs = core.RecvStreamOp{}
			}
		}
	})
	var (
		tpc   int
		sck   *socket.Socket
		chunk []byte
		sent  int
		conn  core.ConnectTCPOp
		ss    core.SendStreamOp
		cls   core.CloseTCPOp
	)
	x.Client.K.SpawnStep("tcpxfer-tx", 0, func(p *kernel.Proc) {
		for {
			switch tpc {
			case 0:
				sck = x.Client.NewTCPSocket(p)
				tpc = 1
			case 1:
				if !x.Client.ConnectTCPStep(p, sck, x.ServerAddr, x.Port, &conn) {
					return
				}
				if conn.Err != nil {
					p.ReqExit()
					return
				}
				x.Started = p.Now()
				chunk = make([]byte, 32*1024)
				tpc = 2
			case 2:
				if sent >= x.TotalBytes {
					tpc = 4
					continue
				}
				n := len(chunk)
				if x.TotalBytes-sent < n {
					n = x.TotalBytes - sent
				}
				ss = core.SendStreamOp{Data: chunk[:n]}
				tpc = 3
			case 3:
				if !x.Client.SendStreamStep(p, sck, &ss) {
					return
				}
				if ss.Err != nil {
					p.ReqExit()
					return
				}
				sent += ss.Total
				tpc = 2
			case 4:
				if !x.Client.CloseTCPStep(p, sck, &cls) {
					return
				}
				p.ReqExit()
				return
			}
		}
	})
}

// ThroughputMbps returns the achieved goodput in Mbit/s once Done.
func (x *TCPTransfer) ThroughputMbps() float64 {
	if !x.Done || x.Ended <= x.Started {
		return 0
	}
	return float64(x.Received) * 8 / float64(x.Ended-x.Started)
}
