package pop

// TCP connection churn: where the UDP population is pure open-loop
// offered load, SessionChurn models the stream of short-lived TCP
// sessions an attach point contributes — each cycle is one modeled
// client's connection: handshake, a heavy-tailed request, read to EOF,
// close, then an exponential think gap before the next client's session.
// Every connection uses a fresh socket (fresh ephemeral port), so the
// server's PCB and listen-queue machinery sees real setup/teardown
// churn, not one long-lived flow.

import (
	"lrp/internal/core"
	"lrp/internal/kernel"
	"lrp/internal/metrics"
	"lrp/internal/pkt"
	"lrp/internal/sim"
	"lrp/internal/socket"
)

// SessionChurn runs cycling TCP sessions from an attach-point host
// through the topology to the server.
type SessionChurn struct {
	Host       *core.Host
	ServerAddr pkt.Addr
	ServerPort uint16
	// ThinkMeanUs is the mean exponential gap between sessions (µs);
	// default 10ms.
	ThinkMeanUs int64
	// Request sizes are bounded Pareto (defaults as pop.Config).
	SizeMin   int
	SizeMax   int
	SizeAlpha float64
	Seed      uint64

	Completed metrics.Counter
	Failures  metrics.Counter
	Proc      *kernel.Proc

	stopped bool
}

// Session machine states.
const (
	scThink = iota
	scConn
	scSend
	scRecv
	scClose
)

// Start spawns the churn proc.
func (c *SessionChurn) Start() {
	if c.ThinkMeanUs <= 0 {
		c.ThinkMeanUs = 10 * sim.Millisecond
	}
	if c.SizeMin <= 0 {
		c.SizeMin = 64
	}
	if c.SizeMax < c.SizeMin {
		c.SizeMax = 4096
	}
	if c.SizeAlpha <= 0 {
		c.SizeAlpha = 1.3
	}
	root := sim.NewRand(c.Seed)
	think := root.Fork(1)
	szr := root.Fork(2)
	var (
		pc   int
		sck  *socket.Socket
		ok   bool
		conn core.ConnectTCPOp
		ss   core.SendStreamOp
		rs   core.RecvStreamOp
		cl   core.CloseTCPOp
	)
	fail := func(p *kernel.Proc) bool {
		c.Host.AbortTCP(nil, sck)
		c.Failures.Inc()
		pc = scThink
		return p.ReqDelay(think.ExpDuration(c.ThinkMeanUs))
	}
	c.Proc = c.Host.K.SpawnStep("pop-tcp", 0, func(p *kernel.Proc) {
		// The body is a pure `for { switch pc }` machine so the stepreq
		// analyzer partitions its state per arm; the stop check lives in
		// scThink, the only arm every session cycles through.
		for {
			switch pc {
			case scThink:
				if c.stopped {
					p.ReqExit()
					return
				}
				sck = c.Host.NewTCPSocket(p)
				ok = false
				conn = core.ConnectTCPOp{}
				pc = scConn
				if p.ReqDelay(think.ExpDuration(c.ThinkMeanUs)) {
					return
				}
			case scConn:
				if !c.Host.ConnectTCPStep(p, sck, c.ServerAddr, c.ServerPort, &conn) {
					return
				}
				if conn.Err != nil {
					if fail(p) {
						return
					}
					continue
				}
				ss = core.SendStreamOp{Data: pkt.Zeros(paretoSize(szr, c.SizeMin, c.SizeMax, c.SizeAlpha))}
				pc = scSend
			case scSend:
				if !c.Host.SendStreamStep(p, sck, &ss) {
					return
				}
				if ss.Err != nil {
					if fail(p) {
						return
					}
					continue
				}
				rs = core.RecvStreamOp{}
				pc = scRecv
			case scRecv:
				if !c.Host.RecvStreamStep(p, sck, 16*1024, &rs) {
					return
				}
				if rs.Err != nil {
					if fail(p) {
						return
					}
					continue
				}
				if rs.Data == nil { // EOF
					cl = core.CloseTCPOp{}
					pc = scClose
					continue
				}
				if len(rs.Data) > 0 {
					ok = true
				}
				rs = core.RecvStreamOp{}
			case scClose:
				if !c.Host.CloseTCPStep(p, sck, &cl) {
					return
				}
				if ok {
					c.Completed.Inc()
				} else {
					c.Failures.Inc()
				}
				pc = scThink
			}
		}
	})
}

// Stop halts the churn: the proc exits before starting its next
// session (a session already in flight runs to completion).
func (c *SessionChurn) Stop() { c.stopped = true }
