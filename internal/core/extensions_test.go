package core

// Tests for the paper's §3.1/§3.5 features: multicast groups sharing one
// NI channel, and IP forwarding via a priority-controlled daemon.

import (
	"fmt"
	"testing"

	"lrp/internal/kernel"
	"lrp/internal/netsim"
	"lrp/internal/pkt"
	"lrp/internal/sim"
)

var groupAddr = pkt.IP(224, 1, 2, 3)

func TestMulticastFanout(t *testing.T) {
	forEachArch(t, func(t *testing.T, r *rig) {
		const members = 3
		got := make([]int, members)
		for i := 0; i < members; i++ {
			i := i
			r.server.K.Spawn(fmt.Sprintf("member-%d", i), 0, func(p *kernel.Proc) {
				s := r.server.NewUDPSocket(p)
				if err := r.server.JoinGroup(p, s, groupAddr, 5353); err != nil {
					t.Error(err)
					return
				}
				for {
					if _, err := r.server.RecvFrom(p, s); err != nil {
						return
					}
					got[i]++
				}
			})
		}
		// Sender on the client host.
		r.client.K.Spawn("sender", 0, func(p *kernel.Proc) {
			s := r.client.NewUDPSocket(p)
			p.Delay(5000) // let every member join before the first send
			for i := 0; i < 5; i++ {
				if err := r.client.SendTo(p, s, groupAddr, 5353, []byte("announce")); err != nil {
					t.Error(err)
				}
				p.Delay(2000)
			}
		})
		r.eng.RunFor(sim.Second)
		for i, n := range got {
			if n != 5 {
				t.Fatalf("member %d received %d of 5 datagrams", i, n)
			}
		}
	})
}

func TestMulticastSharesOneChannel(t *testing.T) {
	// "Multiple sockets bound to the same UDP multicast group share a
	// single NI channel."
	r := newRig(t, ArchSoftLRP)
	base := r.server.Stats().Channels
	r.server.K.Spawn("joiner", 0, func(p *kernel.Proc) {
		s1 := r.server.NewUDPSocket(p)
		s2 := r.server.NewUDPSocket(p)
		s3 := r.server.NewUDPSocket(p)
		_ = r.server.JoinGroup(p, s1, groupAddr, 5353)
		_ = r.server.JoinGroup(p, s2, groupAddr, 5353)
		_ = r.server.JoinGroup(p, s3, groupAddr, 5353)
		if got := r.server.Stats().Channels; got != base+1 {
			t.Errorf("three members allocated %d channels, want 1", got-base)
		}
		r.server.LeaveGroup(p, s1)
		r.server.LeaveGroup(p, s2)
		if got := r.server.Stats().Channels; got != base+1 {
			t.Errorf("channel freed while members remain: %d", got-base)
		}
		r.server.LeaveGroup(p, s3)
		if got := r.server.Stats().Channels; got != base {
			t.Errorf("last leave did not free the shared channel: %d", got-base)
		}
	})
	r.eng.RunFor(100 * sim.Millisecond)
}

func TestMulticastRequiresClassD(t *testing.T) {
	r := newRig(t, ArchSoftLRP)
	r.server.K.Spawn("joiner", 0, func(p *kernel.Proc) {
		s := r.server.NewUDPSocket(p)
		if err := r.server.JoinGroup(p, s, pkt.IP(10, 1, 1, 1), 5353); err == nil {
			t.Error("joining a unicast address succeeded")
		}
	})
	r.eng.RunFor(10 * sim.Millisecond)
}

func TestForwardingDaemon(t *testing.T) {
	for _, arch := range []Arch{ArchBSD, ArchSoftLRP, ArchNILRP} {
		arch := arch
		t.Run(arch.String(), func(t *testing.T) {
			eng := sim.NewEngine()
			nw := netsim.New(eng)
			gwAddr := pkt.IP(10, 0, 0, 9)
			dstAddr := pkt.IP(10, 0, 0, 2)
			gw := NewHost(eng, nw, Config{Name: "GW", Addr: gwAddr, Arch: arch})
			dst := NewHost(eng, nw, Config{Name: "B", Addr: dstAddr, Arch: arch})
			defer gw.Shutdown()
			defer dst.Shutdown()
			gw.EnableForwarding(0)

			// An off-LAN source 172.16.0.1 reaches 10.0.0.2 via GW.
			farSrc := pkt.IP(172, 16, 0, 1)

			var got int
			dst.K.Spawn("sink", 0, func(p *kernel.Proc) {
				s := dst.NewUDPSocket(p)
				_ = dst.BindUDP(s, 7)
				for {
					if _, err := dst.RecvFrom(p, s); err != nil {
						return
					}
					got++
				}
			})
			// Packets for dstAddr delivered to GW's NIC must be forwarded
			// onward.
			for i := 0; i < 10; i++ {
				b := pkt.UDPPacket(farSrc, dstAddr, 99, 7, uint16(i), 8, make([]byte, 14), true)
				d := int64(1000 * (i + 1))
				eng.At(d, func() {
					if n, ok := nw.LookupNIC(gwAddr); ok {
						n.Rx(b)
					}
				})
			}
			eng.RunFor(sim.Second)
			if got != 10 {
				t.Fatalf("destination received %d of 10 forwarded packets", got)
			}
			fs := gw.ForwardStats()
			if fs.Forwarded != 10 {
				t.Fatalf("gateway forwarded %d, want 10", fs.Forwarded)
			}
			if arch.IsLRP() {
				fp := gw.FwdProc()
				if fp == nil || fp.CPUTime() == 0 {
					t.Fatal("LRP forwarding daemon was not charged for forwarding")
				}
			}
		})
	}
}

func TestForwardingTTLExpiry(t *testing.T) {
	eng := sim.NewEngine()
	nw := netsim.New(eng)
	gwAddr := pkt.IP(10, 0, 0, 9)
	gw := NewHost(eng, nw, Config{Name: "GW", Addr: gwAddr, Arch: ArchSoftLRP})
	defer gw.Shutdown()
	gw.EnableForwarding(0)
	b := pkt.UDPPacket(pkt.IP(172, 16, 0, 1), pkt.IP(10, 0, 0, 2), 99, 7, 1, 1 /* TTL=1 */, nil, true)
	eng.At(100, func() {
		if n, ok := nw.LookupNIC(gwAddr); ok {
			n.Rx(b)
		}
	})
	eng.RunFor(100 * sim.Millisecond)
	if gw.ForwardStats().TTLDrops != 1 {
		t.Fatalf("TTL-expired packet not dropped: %+v", gw.ForwardStats())
	}
}

func TestLRPForwardingPriorityControls(t *testing.T) {
	// The paper: the IP daemon's "priority controls resources spent on IP
	// forwarding. The IP daemon competes with other processes for CPU
	// time." A niced daemon on a busy LRP gateway forwards less than a
	// normal-priority one; under BSD forwarding is uncontrollable (it
	// preempts the application either way).
	measure := func(arch Arch, nice int) (fwd uint64, appWork int64) {
		eng := sim.NewEngine()
		nw := netsim.New(eng)
		gwAddr := pkt.IP(10, 0, 0, 9)
		gw := NewHost(eng, nw, Config{Name: "GW", Addr: gwAddr, Arch: arch})
		defer gw.Shutdown()
		gw.EnableForwarding(nice)
		// A local compute-bound application on the gateway.
		app := gw.K.Spawn("localapp", 0, func(p *kernel.Proc) {
			for {
				p.Compute(sim.Millisecond)
			}
		})
		// Transit flood: 12k pkts/s through the gateway.
		n, _ := nw.LookupNIC(gwAddr)
		var pump func()
		count := 0
		pump = func() {
			if count >= 12000 {
				return
			}
			count++
			b := pkt.UDPPacket(pkt.IP(172, 16, 0, 1), pkt.IP(10, 0, 0, 2), 99, 7, uint16(count), 8, make([]byte, 14), true)
			n.Rx(b)
			eng.After(83, pump)
		}
		eng.At(0, pump)
		eng.RunFor(sim.Second)
		return gw.ForwardStats().Forwarded, app.UTime
	}

	fwdHi, appHi := measure(ArchSoftLRP, 0)
	fwdLo, appLo := measure(ArchSoftLRP, 20)
	if fwdLo >= fwdHi {
		t.Errorf("niced daemon forwarded %d >= normal %d", fwdLo, fwdHi)
	}
	if appLo <= appHi {
		t.Errorf("nicing the daemon should give the app more CPU: %d vs %d", appLo, appHi)
	}
	// BSD: forwarding happens at softint priority regardless; the local
	// app is starved of the same amount either way, and the "nice" knob
	// does nothing.
	fwdBsd0, appBsd0 := measure(ArchBSD, 0)
	fwdBsd20, _ := measure(ArchBSD, 20)
	if diff := fwdBsd20 - fwdBsd0; diff > fwdBsd0/10 || fwdBsd0-fwdBsd20 > fwdBsd0/10 {
		t.Errorf("BSD forwarding rate should ignore the nice knob: %d vs %d (diff %d)", fwdBsd0, fwdBsd20, diff)
	}
	if appBsd0 > appHi {
		t.Errorf("BSD app (%d µs) should not beat LRP app (%d µs) under transit load", appBsd0, appHi)
	}
}

func TestPollingStableUnderOverload(t *testing.T) {
	// The M&R mitigation must not livelock: delivered throughput under a
	// 20k pkts/s blast stays near the quota-bound rate while BSD (same
	// eager processing, interrupt-driven) collapses.
	measure := func(arch Arch) float64 {
		eng := sim.NewEngine()
		nw := netsim.New(eng)
		server := NewHost(eng, nw, Config{Name: "srv", Addr: addrB, Arch: arch})
		defer server.Shutdown()
		var got uint64
		server.K.Spawn("sink", 0, func(p *kernel.Proc) {
			s := server.NewUDPSocket(p)
			_ = server.BindUDP(s, 7)
			for {
				if _, err := server.RecvFrom(p, s); err != nil {
					return
				}
				got++
				p.Compute(10)
			}
		})
		rng := sim.NewRand(17)
		var pump func()
		pump = func() {
			nw.Inject(pkt.UDPPacket(addrA, addrB, 9, 7, 1, 64, make([]byte, 14), true))
			eng.After(rng.ExpDuration(50), pump) // ~20k pkts/s Poisson
		}
		eng.At(0, pump)
		eng.RunFor(2 * sim.Second)
		return float64(got) / 2
	}
	polling := measure(ArchPolling)
	bsd := measure(ArchBSD)
	if polling < 3000 {
		t.Fatalf("polling delivered only %.0f/s at 20k offered", polling)
	}
	if bsd > polling/2 {
		t.Fatalf("BSD (%.0f/s) should collapse while polling (%.0f/s) holds", bsd, polling)
	}
}

func TestPollingReturnsToInterrupts(t *testing.T) {
	// After the overload subsides, the system must leave polled mode and
	// answer low-rate traffic promptly again.
	eng := sim.NewEngine()
	nw := netsim.New(eng)
	server := NewHost(eng, nw, Config{Name: "srv", Addr: addrB, Arch: ArchPolling})
	defer server.Shutdown()
	var rtts []int64
	server.K.Spawn("echo", 0, func(p *kernel.Proc) {
		s := server.NewUDPSocket(p)
		_ = server.BindUDP(s, 7)
		for {
			d, err := server.RecvFrom(p, s)
			if err != nil {
				return
			}
			rtts = append(rtts, p.Now()-d.Arrival)
		}
	})
	// Burst to force polled mode.
	eng.At(1000, func() {
		for i := 0; i < 64; i++ {
			nw.Inject(pkt.UDPPacket(addrA, addrB, 9, 7, uint16(i), 64, make([]byte, 14), true))
		}
	})
	// A lone packet long after the burst: must be handled via interrupt
	// with low latency.
	eng.At(sim.Second, func() {
		nw.Inject(pkt.UDPPacket(addrA, addrB, 9, 7, 99, 64, make([]byte, 14), true))
	})
	eng.RunFor(2 * sim.Second)
	if server.Stats().PollTransitions == 0 {
		t.Fatal("burst never triggered polled mode")
	}
	if len(rtts) == 0 {
		t.Fatal("no packets delivered")
	}
	last := rtts[len(rtts)-1]
	if last > 500 {
		t.Fatalf("post-overload packet took %dµs; interrupts not re-enabled", last)
	}
}

func TestPollingLacksTrafficSeparation(t *testing.T) {
	// "their system does not achieve traffic separation, and therefore
	// drops packets irrespective of their destination during periods of
	// overload" — a low-rate flow through an overloaded polling host loses
	// packets; through a SOFT-LRP host it does not.
	lost := func(arch Arch) int {
		eng := sim.NewEngine()
		nw := netsim.New(eng)
		server := NewHost(eng, nw, Config{Name: "srv", Addr: addrB, Arch: arch})
		defer server.Shutdown()
		// The overloaded socket.
		server.K.Spawn("sink", 0, func(p *kernel.Proc) {
			s := server.NewUDPSocket(p)
			_ = server.BindUDP(s, 7)
			for {
				if _, err := server.RecvFrom(p, s); err != nil {
					return
				}
				p.Compute(10)
			}
		})
		// The victim flow: one probe every 10ms to a different socket.
		var got int
		server.K.Spawn("victim", 0, func(p *kernel.Proc) {
			s := server.NewUDPSocket(p)
			_ = server.BindUDP(s, 8)
			for {
				if _, err := server.RecvFrom(p, s); err != nil {
					return
				}
				got++
			}
		})
		rng := sim.NewRand(23)
		var blast func()
		blast = func() {
			nw.Inject(pkt.UDPPacket(addrA, addrB, 9, 7, 1, 64, make([]byte, 14), true))
			eng.After(rng.ExpDuration(50), blast) // ~20k pkts/s
		}
		eng.At(0, blast)
		// Probes start after 100ms so both sockets are bound well before
		// the first one (binding itself races the blast for CPU).
		const probes = 100
		for i := 0; i < probes; i++ {
			seq := uint16(i)
			eng.At(int64(100_000+10_000*(i+1)), func() {
				nw.Inject(pkt.UDPPacket(addrC, addrB, 10, 8, seq, 64, []byte("probe"), true))
			})
		}
		eng.RunFor(2 * sim.Second)
		return probes - got
	}
	pollLost := lost(ArchPolling)
	lrpLost := lost(ArchSoftLRP)
	if lrpLost > 2 {
		t.Fatalf("SOFT-LRP lost %d probes; traffic separation broken", lrpLost)
	}
	if pollLost < 10 {
		t.Fatalf("polling lost only %d probes; expected indiscriminate drops", pollLost)
	}
}
