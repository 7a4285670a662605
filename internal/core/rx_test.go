package core

// Tests for the receive path: what an interrupt costs the raw-ring hosts
// (BSD, SOFT-LRP, Early-Demux, Polling) at every queue and CPU count,
// what a received packet allocates, and how an undecodable one is
// counted.

import (
	"fmt"
	"testing"

	"lrp/internal/fault"
	"lrp/internal/kernel"
	"lrp/internal/netsim"
	"lrp/internal/pkt"
	"lrp/internal/race"
	"lrp/internal/sim"
	"lrp/internal/socket"
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

// TestRawRxAllocs pins the receive path at zero allocations per received
// packet: the interrupt entries, driver steps and softint handlers are
// bound once at construction, and deferred work rides records on FIFOs.
// The queues=N cases send to an unbound port, so the packet ends at the
// demux or PCB-lookup drop. The delivered case binds a socket whose step
// reader releases each datagram, so the socket queue, the channel signal
// and the input machine's mbuf hand-off are measured too: a missing
// EndTransfer shows up as an allocation, a double one as a panic. The
// traced case is the delivered one with the host's trace log on and small
// enough to wrap, so recording the dispatch, demux and delivery records
// is measured too.
func TestRawRxAllocs(t *testing.T) {
	for _, arch := range everyArch {
		t.Run(arch.String(), func(t *testing.T) {
			if arch != ArchNILRP {
				for _, queues := range []int{1, 2} {
					t.Run(fmt.Sprintf("queues=%d", queues), func(t *testing.T) {
						rxAllocs(t, arch, queues, rxDropped)
					})
				}
			}
			t.Run("delivered", func(t *testing.T) {
				rxAllocs(t, arch, 1, rxDelivered)
			})
			t.Run("traced", func(t *testing.T) {
				rxAllocs(t, arch, 1, rxTraced)
			})
		})
	}
}

// rxCase is what rxAllocs measures.
type rxCase int

const (
	rxDropped   rxCase = iota // no reader: each packet ends at a drop
	rxDelivered               // a bound reader releases each datagram
	rxTraced                  // rxDelivered with the host's trace log on
)

// rxAllocs measures the allocations per packet received by a host of arch
// with the given receive queue count.
func rxAllocs(t *testing.T, arch Arch, queues int, c rxCase) {
	eng := sim.NewEngine()
	nw := netsim.New(eng)
	h := NewHost(eng, nw, Config{Name: "server", Addr: addrB, Arch: arch, RxQueues: queues})
	defer h.Shutdown()
	if c == rxTraced {
		h.EnableTrace(16)
	}
	var got int
	deliver := c != rxDropped
	if deliver {
		var (
			s  *socket.Socket
			fr RecvFromOp
		)
		reader := h.K.SpawnStep("reader", 0, func(p *kernel.Proc) {
			for {
				if !h.RecvFromStep(p, s, &fr) {
					return
				}
				fr.D.Release()
				fr.Reset()
				got++
			}
		})
		s = h.NewUDPSocket(reader)
		if err := h.BindUDP(s, 7); err != nil {
			t.Fatal(err)
		}
	}
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
	want := 0
	if deliver {
		want = 111 // the warm-up packets, AllocsPerRun's own warm-up, 100 runs
	}
	if got != want {
		t.Errorf("reader got %d datagrams, want %d", got, want)
	}
	if c == rxTraced && h.Trace.Overwritten() == 0 {
		t.Errorf("%d records traced, want the ring of 16 to wrap", h.Trace.Len())
	}
}

// TestPolledModeAllocs holds a Polling host in polled mode — 40 datagrams
// to an unbound port per PollInterval, ten times what a poll admits — and
// pins each interval at zero allocations: the poll pass is bound once and
// its batch rides a record to a bound handler.
func TestPolledModeAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	eng := sim.NewEngine()
	nw := netsim.New(eng)
	h := NewHost(eng, nw, Config{Name: "server", Addr: addrB, Arch: ArchPolling})
	defer h.Shutdown()
	b := pkt.UDPPacket(addrA, addrB, 9, 7, 1, 64, []byte("x"), true)
	interval := func() {
		for i := 0; i < 40; i++ {
			nw.Inject(b)
		}
		eng.RunFor(h.CM.PollInterval)
	}
	for i := 0; i < 10; i++ {
		interval() // enter polled mode; warm the pools and free lists
	}
	if !h.polled {
		t.Fatal("the host did not enter polled mode")
	}
	entered := h.Stats().PollTransitions
	if n := testing.AllocsPerRun(100, interval); n != 0 {
		t.Errorf("%.2f allocs per poll interval, want 0", n)
	}
	if !h.polled || h.Stats().PollTransitions != entered {
		t.Fatal("the host left polled mode during the measurement")
	}
}

// TestTruncatedHeaderCountedMalformed hands the NIC a packet cut off
// inside its IP header: every architecture drops it as malformed, at the
// demultiplexer or at IP input.
func TestTruncatedHeaderCountedMalformed(t *testing.T) {
	for _, arch := range everyArch {
		t.Run(arch.String(), func(t *testing.T) {
			eng := sim.NewEngine()
			h := NewHost(eng, netsim.New(eng), Config{Name: "server", Addr: addrB, Arch: arch})
			defer h.Shutdown()
			b := pkt.UDPPacket(addrA, addrB, 9, 7, 1, 64, nil, true)[:12]
			eng.At(0, func() { h.NIC.Rx(b) })
			eng.RunFor(10 * sim.Millisecond)
			if got := h.Stats().MalformedDrops; got != 1 {
				t.Fatalf("%d malformed drops, want 1", got)
			}
		})
	}
}
