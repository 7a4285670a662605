package core

import (
	"testing"

	"lrp/internal/netsim"
	"lrp/internal/nic"
	"lrp/internal/pkt"
	"lrp/internal/race"
	"lrp/internal/sim"
)

// TestForwardAllocs pins IP forwarding at zero allocations per packet: the
// gateway rebuilds each packet in its transmit scratch buffer, and its
// transmit and the wire hops allocate nothing either. (Early-Demux is left
// out: it still posts a closure per transit packet.)
func TestForwardAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	for _, arch := range []Arch{ArchBSD, ArchSoftLRP, ArchNILRP} {
		t.Run(arch.String(), func(t *testing.T) {
			eng := sim.NewEngine()
			nw := netsim.New(eng)
			gw := NewHost(eng, nw, Config{Name: "gw", Addr: addrC, Arch: arch})
			defer gw.Shutdown()
			gw.EnableForwarding(0)
			src := nic.New(eng, nic.Config{Name: "src"})
			dst := nic.New(eng, nic.Config{Name: "dst"})
			nw.Attach(src, addrA, 155_000_000, 10)
			nw.Attach(dst, addrB, 155_000_000, 10)
			if err := nw.AddRouteFrom(addrA, addrB, addrC); err != nil {
				t.Fatal(err)
			}
			b := pkt.UDPPacket(addrA, addrB, 9, 7, 1, 64, []byte("x"), true)
			forward := func() {
				nw.InjectFrom(addrA, b)
				eng.RunFor(sim.Millisecond)
				m := dst.RxDequeue()
				if m == nil {
					t.Fatal("the packet did not arrive through the gateway")
				}
				m.Free()
			}
			for i := 0; i < 10; i++ {
				forward() // warm the pools, free lists and scratch buffer
			}
			if n := testing.AllocsPerRun(100, forward); n != 0 {
				t.Errorf("forwarding one packet allocates %v, want 0", n)
			}
		})
	}
}
