package core

// Tests for the raw-ring receive path shared by BSD, SOFT-LRP,
// Early-Demux and Polling: what an interrupt costs at every queue and
// CPU count, and what a received packet allocates.

import (
	"fmt"
	"testing"

	"lrp/internal/fault"
	"lrp/internal/netsim"
	"lrp/internal/pkt"
	"lrp/internal/sim"
)

// TestSpuriousInterruptCharged pins that an interrupt raised with no
// packet behind it costs every raw-ring host the same hardware-interrupt
// time — entry, one empty driver step, and the head-of-ring demux
// pricing of the soft-demux kernels — at any CPU and queue count.
// NI-LRP has no host receive ring, so its host pays nothing.
func TestSpuriousInterruptCharged(t *testing.T) {
	cm := DefaultCosts()
	perIntr := map[Arch]int64{
		ArchBSD:        cm.HWIntrFixed + cm.DriverPerPkt,
		ArchPolling:    cm.HWIntrFixed + cm.DriverPerPkt,
		ArchSoftLRP:    cm.HWIntrFixed + cm.DriverPerPkt + cm.DemuxCost,
		ArchEarlyDemux: cm.HWIntrFixed + cm.DriverPerPkt + cm.DemuxCost,
		ArchNILRP:      0,
	}
	for _, arch := range []Arch{ArchBSD, ArchSoftLRP, ArchEarlyDemux, ArchPolling, ArchNILRP} {
		for _, shape := range [][2]int{{1, 1}, {2, 1}, {2, 2}} {
			cpus, queues := shape[0], shape[1]
			t.Run(fmt.Sprintf("%s/cpus=%d/queues=%d", arch, cpus, queues), func(t *testing.T) {
				eng := sim.NewEngine()
				h := NewHost(eng, netsim.New(eng), Config{Name: "server", Addr: addrB, Arch: arch, CPUs: cpus, RxQueues: queues})
				defer h.Shutdown()
				hf, err := fault.InstallNIC(eng, h.NIC, h.Pool, fault.NICPlan{
					SpuriousIntrs: []fault.IntrFault{{PeriodUs: 1000, End: 100 * sim.Millisecond}},
				})
				if err != nil {
					t.Fatal(err)
				}
				eng.RunFor(200 * sim.Millisecond)
				if hf.SpuriousRaised != 100 {
					t.Fatalf("%d spurious interrupts raised, want 100", hf.SpuriousRaised)
				}
				var hw int64
				for _, k := range h.CPUs {
					hw += k.Stats().HWTime
				}
				if want := int64(hf.SpuriousRaised) * perIntr[arch]; hw != want {
					t.Errorf("hardware-interrupt time %d µs, want %d (%d µs per interrupt)", hw, want, perIntr[arch])
				}
			})
		}
	}
}

// TestRawRxAllocs pins the raw-ring receive path at zero allocations
// per received packet: the interrupt entries, driver steps and softint
// bodies are bound once at construction. The datagram is for an unbound
// port, so the packet ends at the demux or PCB-lookup drop and socket
// delivery is not measured.
func TestRawRxAllocs(t *testing.T) {
	for _, arch := range []Arch{ArchBSD, ArchSoftLRP, ArchEarlyDemux, ArchPolling} {
		t.Run(arch.String(), func(t *testing.T) {
			for _, queues := range []int{1, 2} {
				t.Run(fmt.Sprintf("queues=%d", queues), func(t *testing.T) {
					eng := sim.NewEngine()
					nw := netsim.New(eng)
					h := NewHost(eng, nw, Config{Name: "server", Addr: addrB, Arch: arch, RxQueues: queues})
					defer h.Shutdown()
					b := pkt.UDPPacket(addrA, addrB, 9, 7, 1, 64, []byte("x"), true)
					rx := func() {
						nw.Inject(b)
						eng.RunFor(sim.Millisecond)
					}
					for i := 0; i < 10; i++ {
						rx() // warm the pools and free lists
					}
					if n := testing.AllocsPerRun(100, rx); n != 0 {
						t.Errorf("%.2f allocs per received packet, want 0", n)
					}
				})
			}
		})
	}
}
