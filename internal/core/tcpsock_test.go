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
