package core

import (
	"testing"

	"lrp/internal/netsim"
	"lrp/internal/race"
	"lrp/internal/sim"
	"lrp/internal/tcp"
)

// TestConnTimerRearmAllocs pins re-arming a live connection's timer at
// zero allocations: the expiry thunk is built on the timer's first arm and
// reused, and the cancelled event's storage backs the new one.
func TestConnTimerRearmAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	eng := sim.NewEngine()
	h := NewHost(eng, netsim.New(eng), Config{Name: "server", Addr: addrB, Arch: ArchSoftLRP})
	defer h.Shutdown()
	c := tcp.NewConn(&h.hooks, h.Addr, 80, addrA, 1024, 1)
	h.hooks.ArmTimer(c, tcp.TimerRexmt, sim.Second)
	if n := testing.AllocsPerRun(100, func() {
		h.hooks.ArmTimer(c, tcp.TimerRexmt, sim.Second)
	}); n != 0 {
		t.Errorf("re-arming a connection timer allocates %v per arm, want 0", n)
	}
}

// TestConnTimerExpiryAllocs arms and fires a listener's delayed-ACK timer
// on every kernel and pins each expiry at zero allocations: the expiry
// rides a record on the host's protocol-work queue, drained by the APP
// thread under LRP and by a bound software-interrupt handler elsewhere.
func TestConnTimerExpiryAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	for _, arch := range everyArch {
		t.Run(arch.String(), func(t *testing.T) {
			eng := sim.NewEngine()
			h := NewHost(eng, netsim.New(eng), Config{Name: "server", Addr: addrB, Arch: arch})
			defer h.Shutdown()
			s := h.NewTCPSocket(nil)
			if err := h.BindTCP(s, 80); err != nil {
				t.Fatal(err)
			}
			if err := h.Listen(nil, s, 5); err != nil {
				t.Fatal(err)
			}
			c := s.Conn.(*tcp.Conn)
			expire := func() {
				h.hooks.ArmTimer(c, tcp.TimerDelack, 100)
				eng.RunFor(sim.Millisecond)
			}
			for i := 0; i < 10; i++ {
				expire() // warm the event pool and the work queues
			}
			if n := testing.AllocsPerRun(100, expire); n != 0 {
				t.Errorf("a timer expiry allocates %v, want 0", n)
			}
			// 111 expiries: the warm-up, AllocsPerRun's own, and 100 runs.
			busy := h.K.Stats().SWTime
			if arch.IsLRP() {
				busy = h.appProc.STime
			}
			if want := 111 * h.CM.TCPTimerCost; busy != want {
				t.Errorf("timer processing took %d µs, want %d", busy, want)
			}
		})
	}
}
