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

// The Table 2 workload: "The RPC facility we used is based on UDP
// datagrams." An RPCServer performs PerCallCompute of work per request and
// replies; an RPCClient keeps requests outstanding, "distributed near
// uniformly in time".

// RPCServer answers UDP RPC requests after computing for PerCallCompute µs.
type RPCServer struct {
	Host *core.Host
	Port uint16
	// PerCallCompute is the per-request computation ("Fast", "Medium" and
	// "Slow" correspond to tests with different amounts of per-request
	// computations").
	PerCallCompute int64
	// CachePenalty marks the computation memory-bound (see kernel.Proc).
	CachePenalty int64
	// DisturbPenalty is the per-interrupt-disturbance cache cost (see
	// kernel.Proc.IntrPenalty).
	DisturbPenalty int64
	ReplySize      int

	Served metrics.Counter
	Proc   *kernel.Proc
}

// Start spawns the server process.
func (s *RPCServer) Start() {
	if s.ReplySize == 0 {
		s.ReplySize = 32
	}
	var (
		pc    int
		sock  *socket.Socket
		reply []byte
		d     socket.Datagram
		recv  core.RecvFromOp
		send  core.SendToOp
	)
	s.Proc = s.Host.K.SpawnStep("rpc-srv", 0, func(p *kernel.Proc) {
		for {
			switch pc {
			case 0:
				p.CachePenalty = s.CachePenalty
				p.IntrPenalty = s.DisturbPenalty
				sock = s.Host.NewUDPSocket(p)
				if err := s.Host.BindUDP(sock, s.Port); err != nil {
					panic(err)
				}
				reply = make([]byte, s.ReplySize)
				pc = 1
			case 1:
				if !s.Host.RecvFromStep(p, sock, &recv) {
					return
				}
				if recv.Err != nil {
					p.ReqExit()
					return
				}
				d = recv.D
				recv.Reset()
				pc = 2
				if p.ReqCompute(s.PerCallCompute) {
					return
				}
			case 2:
				if len(d.Data) >= 8 {
					copy(reply, d.Data[:8]) // echo the request id
				}
				d.Release() // only the id was needed
				send.Reset()
				pc = 3
			case 3:
				if !s.Host.SendToStep(p, sock, d.Src, d.SPort, reply, &send) {
					return
				}
				if send.Err != nil {
					p.ReqExit()
					return
				}
				s.Served.Inc()
				pc = 1
			}
		}
	})
}

// WorkerServer performs one long, memory-bound computation in response to
// a single RPC ("The first server process, called the worker, performs a
// memory-bound computation... approximately 11.5 seconds of CPU time and
// has a memory working set that covers a significant fraction (35%) of
// the second level cache").
type WorkerServer struct {
	Host        *core.Host
	Port        uint16
	ComputeTime int64 // total CPU the call needs
	// CachePenalty is the per-preemption cache-refill cost of the large
	// working set.
	CachePenalty int64

	StartedAt  sim.Time
	FinishedAt sim.Time
	Done       bool
	Proc       *kernel.Proc
}

// Start spawns the worker process.
func (w *WorkerServer) Start() {
	var (
		pc        int
		sock      *socket.Socket
		d         socket.Datagram
		remaining int64
		recv      core.RecvFromOp
		send      core.SendToOp
	)
	w.Proc = w.Host.K.SpawnStep("worker", 0, func(p *kernel.Proc) {
		for {
			switch pc {
			case 0:
				p.CachePenalty = w.CachePenalty
				sock = w.Host.NewUDPSocket(p)
				if err := w.Host.BindUDP(sock, w.Port); err != nil {
					panic(err)
				}
				pc = 1
			case 1:
				if !w.Host.RecvFromStep(p, sock, &recv) {
					return
				}
				if recv.Err != nil {
					p.ReqExit()
					return
				}
				d = recv.D
				d.Release() // only the reply address is needed
				w.StartedAt = p.Now()
				remaining = w.ComputeTime
				pc = 2
			case 2:
				if remaining <= 0 {
					send.Reset()
					pc = 3
					continue
				}
				// Compute in slices so preemption effects (and their cache
				// penalties) are visible at realistic granularity.
				c := 5 * sim.Millisecond
				if remaining < c {
					c = remaining
				}
				remaining -= c
				if p.ReqCompute(c) {
					return
				}
			case 3:
				if !w.Host.SendToStep(p, sock, d.Src, d.SPort, []byte("done"), &send) {
					return
				}
				w.FinishedAt = p.Now()
				w.Done = true
				p.ReqExit()
				return
			}
		}
	})
}

// Elapsed returns the worker call's wall-clock completion time.
func (w *WorkerServer) Elapsed() int64 {
	if !w.Done {
		return 0
	}
	return w.FinishedAt - w.StartedAt
}

// CPUShare returns the worker's CPU share over the call: CPU time consumed
// divided by elapsed time (the paper's fairness metric; ideal is 1/3 with
// two other busy servers).
func (w *WorkerServer) CPUShare() float64 {
	el := w.Elapsed()
	if el == 0 {
		return 0
	}
	return float64(w.Proc.CPUTime()) / float64(el)
}

// RPCClient issues requests to one server, keeping Outstanding requests in
// flight at near-uniform spacing ("(1) each server has a number of
// outstanding RPC requests at all times, and (2) the requests are
// distributed near uniformly in time").
type RPCClient struct {
	Host       *core.Host
	ServerAddr pkt.Addr
	ServerPort uint16
	// Interval is the target spacing between request transmissions (µs).
	Interval int64
	// Outstanding caps requests in flight.
	Outstanding int
	Rng         *sim.Rand

	Completed metrics.Counter
	RTT       metrics.Histogram
	Proc      *kernel.Proc
}

// Start spawns the client process.
func (c *RPCClient) Start() {
	if c.Outstanding == 0 {
		c.Outstanding = 4
	}
	if c.Rng == nil {
		c.Rng = sim.NewRand(77)
	}
	var (
		pc        int
		sock      *socket.Socket
		inflight  int
		sendTimes map[uint64]int64
		id        uint64
		req       []byte
		recv      core.RecvFromOp
		send      core.SendToOp
	)
	c.Proc = c.Host.K.SpawnStep("rpc-cli", 0, func(p *kernel.Proc) {
		for {
			switch pc {
			case 0:
				sock = c.Host.NewUDPSocket(p)
				if err := c.Host.BindUDP(sock, 0); err != nil {
					panic(err)
				}
				sendTimes = make(map[uint64]int64)
				req = make([]byte, 64)
				recv = core.RecvFromOp{Timed: true, Timeout: sim.Second}
				pc = 1
			case 1:
				if inflight < c.Outstanding {
					id++
					binary.BigEndian.PutUint64(req, id)
					sendTimes[id] = p.Now()
					send.Reset()
					pc = 2
					continue
				}
				recv.Reset()
				pc = 3
			case 2:
				if !c.Host.SendToStep(p, sock, c.ServerAddr, c.ServerPort, req, &send) {
					return
				}
				if send.Err != nil {
					p.ReqExit()
					return
				}
				inflight++
				pc = 1
				if c.Interval > 0 {
					if p.ReqDelay(c.Rng.Jitter(c.Interval, 0.2)) {
						return
					}
				}
			case 3:
				if !c.Host.RecvFromStep(p, sock, &recv) {
					return
				}
				if recv.Err != nil {
					p.ReqExit()
					return
				}
				if !recv.OK {
					// Lost request or reply (rare off-overload): refill.
					inflight = 0
					pc = 1
					continue
				}
				inflight--
				if len(recv.D.Data) >= 8 {
					rid := binary.BigEndian.Uint64(recv.D.Data)
					if t0, found := sendTimes[rid]; found {
						c.RTT.Add(p.Now() - t0)
						delete(sendTimes, rid)
					}
				}
				recv.D.Release() // id consumed
				c.Completed.Inc()
				pc = 1
			}
		}
	})
}
