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

// SYNFlood injects "fake TCP connection establishment requests (SYN
// packets) to a dummy server" at a fixed rate, each from a fresh source
// port so no two belong to the same embryonic connection. "No connections
// are ever established as a result of these requests; TCP on the server
// side discards most of them once the dummy server's listen backlog is
// exceeded."
type SYNFlood struct {
	Net    *netsim.Network
	Src    pkt.Addr
	Dst    pkt.Addr
	DPort  uint16
	Rate   int64 // SYNs per second
	Jitter float64
	Rng    *sim.Rand

	Sent    metrics.Counter
	stopped bool
	sport   uint16
	seq     uint32
	ipid    uint16
	pool    *mbuf.Pool
	// emit is the single reusable firing thunk; rebuilding it per SYN
	// would allocate a closure on every emission.
	emit func()
}

// Start begins the flood; Stop halts it.
func (f *SYNFlood) Start() {
	if f.Rng == nil {
		f.Rng = sim.NewRand(99)
	}
	if f.Jitter == 0 {
		f.Jitter = 0.3
	}
	if f.sport == 0 {
		f.sport = 1024
	}
	f.pool = mbuf.NewPool(0)
	f.emit = func() {
		if f.stopped {
			return
		}
		f.sport++
		if f.sport < 1024 {
			f.sport = 1024
		}
		f.seq += 12345
		f.ipid++
		h := pkt.TCPHeader{
			SrcPort: f.sport,
			DstPort: f.DPort,
			Seq:     f.seq,
			Flags:   pkt.TCPSyn,
			Window:  8192,
			MSS:     1460,
		}
		f.Sent.Inc()
		m := f.pool.AllocBuf(pkt.TCPTotalLen(&h, 0))
		m.Data = pkt.AppendTCP(m.Data, f.Src, f.Dst, &h, f.ipid, 64, nil)
		f.Net.InjectMbuf(m)
		f.schedule()
	}
	f.schedule()
}

// Stop halts the flood.
func (f *SYNFlood) Stop() { f.stopped = true }

func (f *SYNFlood) schedule() {
	if f.stopped || f.Rate <= 0 {
		return
	}
	gap := sim.Second / f.Rate
	if gap < 1 {
		gap = 1
	}
	f.Net.Eng.After(f.Rng.Jitter(gap, f.Jitter), f.emit)
}

// StartDummyServer spawns the flood's victim: "a dummy server running on
// the server machine" that listens on port but never accepts, so its
// backlog fills after the first few SYNs.
func StartDummyServer(h *core.Host, port uint16, backlog int) *kernel.Proc {
	var (
		pc  int
		l   *socket.Socket
		lis core.ListenOp
	)
	return h.K.SpawnStep("dummy-srv", 0, func(p *kernel.Proc) {
		for {
			switch pc {
			case 0:
				l = h.NewTCPSocket(p)
				if err := h.BindTCP(l, port); err != nil {
					panic(err)
				}
				pc = 1
			case 1:
				if !h.ListenStep(p, l, backlog, &lis) {
					return
				}
				if lis.Err != nil {
					panic(lis.Err)
				}
				pc = 2
				p.ReqSleep(&l.AcceptWait) // sleeps forever; never accepts
				return
			case 2:
				p.ReqExit() // woken only at teardown
				return
			}
		}
	})
}
