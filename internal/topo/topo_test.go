package topo

import (
	"testing"

	"lrp/internal/core"
	"lrp/internal/fault"
	"lrp/internal/kernel"
	"lrp/internal/netsim"
	"lrp/internal/pkt"
	"lrp/internal/sim"
)

const mbps155 = 155_000_000

func testSpec(arch core.Arch) (Spec, *sim.Engine) {
	eng := sim.NewEngine()
	nw := netsim.New(eng)
	spec := Spec{
		Eng: eng,
		Net: nw,
		Make: func(name string, addr pkt.Addr) *core.Host {
			return core.NewHost(eng, nw, core.Config{Name: name, Addr: addr, Arch: arch})
		},
	}
	return spec, eng
}

func TestBuildersValidate(t *testing.T) {
	for _, build := range []struct {
		name string
		mk   func(Spec) *Topology
	}{
		{"direct", func(s Spec) *Topology { return Direct(s) }},
		{"chain3", func(s Spec) *Topology { return Chain(s, 2) }},
		{"chain5", func(s Spec) *Topology { return Chain(s, 4) }},
		{"tree16", func(s Spec) *Topology { return FanIn(s, 4, 2) }},
		{"tree27", func(s Spec) *Topology { return FanIn(s, 3, 3) }},
	} {
		t.Run(build.name, func(t *testing.T) {
			spec, _ := testSpec(core.ArchSoftLRP)
			topo := build.mk(spec)
			defer topo.Shutdown()
			if err := topo.Validate(); err != nil {
				t.Fatal(err)
			}
			if topo.Hops() != len(topo.Gateways)+1 && build.name != "tree16" && build.name != "tree27" {
				t.Fatalf("Hops()=%d with %d gateways", topo.Hops(), len(topo.Gateways))
			}
		})
	}
}

func TestChainDeliversThroughEveryGateway(t *testing.T) {
	spec, eng := testSpec(core.ArchSoftLRP)
	topo := Chain(spec, 2)
	defer topo.Shutdown()
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	got := sinkUDP(topo)
	edge := topo.Edges[0]
	b := pkt.UDPPacket(edge.Addr, topo.Server.Addr, 99, 7, 1, 64, nil, true)
	eng.At(100, func() { topo.Net.InjectFrom(edge.Addr, b) })
	eng.RunFor(200 * sim.Millisecond)
	if *got != 1 {
		t.Fatalf("server got %d datagrams, want 1", *got)
	}
	for i, g := range topo.Gateways {
		if g.ForwardStats().Forwarded != 1 {
			t.Fatalf("gateway %d forwarded %d packets, want 1", i, g.ForwardStats().Forwarded)
		}
	}
}

func TestFanInAggregatesAllEdges(t *testing.T) {
	spec, eng := testSpec(core.ArchSoftLRP)
	topo := FanIn(spec, 4, 2)
	defer topo.Shutdown()
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(topo.Edges) != 16 || len(topo.Gateways) != 5 {
		t.Fatalf("tree16 has %d edges, %d gateways", len(topo.Edges), len(topo.Gateways))
	}
	got := sinkUDP(topo)
	for i, e := range topo.Edges {
		b := pkt.UDPPacket(e.Addr, topo.Server.Addr, 99, 7, uint16(i+1), 64, nil, true)
		addr := e.Addr
		eng.At(int64(100+i*50), func() { topo.Net.InjectFrom(addr, b) })
	}
	eng.RunFor(500 * sim.Millisecond)
	if *got != 16 {
		t.Fatalf("server got %d datagrams, want 16 (one per edge)", *got)
	}
	// The root gateway (G1) carries everything; the four leaf gateways
	// carry their own subtree.
	if f := topo.Gateways[0].ForwardStats().Forwarded; f != 16 {
		t.Fatalf("root forwarded %d, want 16", f)
	}
	for i := 1; i < 5; i++ {
		if f := topo.Gateways[i].ForwardStats().Forwarded; f != 4 {
			t.Fatalf("leaf gateway %d forwarded %d, want 4", i, f)
		}
	}
}

func TestImpairSegmentsDropsEverythingAtFullLoss(t *testing.T) {
	spec, eng := testSpec(core.ArchSoftLRP)
	topo := Chain(spec, 2)
	defer topo.Shutdown()
	if err := topo.ImpairSegments(fault.LossPlan(1.0, 1)); err != nil {
		t.Fatal(err)
	}
	got := sinkUDP(topo)
	edge := topo.Edges[0]
	for i := 0; i < 10; i++ {
		b := pkt.UDPPacket(edge.Addr, topo.Server.Addr, 99, 7, uint16(i+1), 64, nil, true)
		eng.At(int64(100+i*100), func() { topo.Net.InjectFrom(edge.Addr, b) })
	}
	eng.RunFor(200 * sim.Millisecond)
	if *got != 0 {
		t.Fatalf("server got %d datagrams through a 100%% loss chain", *got)
	}
}

func TestValidateDetectsRoutingLoop(t *testing.T) {
	spec, _ := testSpec(core.ArchSoftLRP)
	topo := Chain(spec, 2)
	defer topo.Shutdown()
	// Sabotage: make G2 route server-bound traffic back to G1.
	if err := spec.Net.AddRouteFrom(topo.Gateways[1].Addr, topo.Server.Addr, topo.Gateways[0].Addr); err != nil {
		t.Fatal(err)
	}
	if err := topo.Validate(); err == nil {
		t.Fatal("Validate accepted a routing loop")
	}
}

func TestReversePathReachesEdges(t *testing.T) {
	// Server-originated traffic must retrace the chain: required for TCP.
	spec, eng := testSpec(core.ArchSoftLRP)
	topo := Chain(spec, 2)
	defer topo.Shutdown()
	edge := topo.Edges[0]
	var got int
	edge.K.Spawn("edgesink", 0, func(p *kernel.Proc) {
		s := edge.NewUDPSocket(p)
		_ = edge.BindUDP(s, 9)
		for {
			if _, err := edge.RecvFrom(p, s); err != nil {
				return
			}
			got++
		}
	})
	b := pkt.UDPPacket(topo.Server.Addr, edge.Addr, 99, 9, 1, 64, nil, true)
	eng.At(100, func() { topo.Net.InjectFrom(topo.Server.Addr, b) })
	eng.RunFor(200 * sim.Millisecond)
	if got != 1 {
		t.Fatalf("edge got %d reverse datagrams, want 1", got)
	}
	for i, g := range topo.Gateways {
		if g.ForwardStats().Forwarded != 1 {
			t.Fatalf("gateway %d forwarded %d on the reverse path", i, g.ForwardStats().Forwarded)
		}
	}
}

// TestGatewayForwardsEveryVerdict checks that a gateway forwards transit
// traffic whatever its demultiplexer makes of it: an ICMP echo (which
// would map to the gateway's own ICMP proxy) and the trailing fragments
// of a datagram (which match no mapping, because the head matched no
// local socket). Early-Demux answers no ICMP, so only its fragments are
// checked.
func TestGatewayForwardsEveryVerdict(t *testing.T) {
	for _, arch := range []core.Arch{core.ArchSoftLRP, core.ArchNILRP, core.ArchEarlyDemux} {
		t.Run(arch.String(), func(t *testing.T) {
			spec, eng := testSpec(arch)
			topo := Chain(spec, 1)
			defer topo.Shutdown()
			edge, gw, srv := topo.Edges[0], topo.Gateways[0], topo.Server
			var got []int
			srv.K.Spawn("sink", 0, func(p *kernel.Proc) {
				s := srv.NewUDPSocket(p)
				_ = srv.BindUDP(s, 7)
				for {
					d, err := srv.RecvFrom(p, s)
					if err != nil {
						return
					}
					got = append(got, len(d.Data))
				}
			})
			edge.K.Spawn("client", 0, func(p *kernel.Proc) {
				if arch != core.ArchEarlyDemux {
					edge.Ping(p, srv.Addr, 1, 56)
				}
				s := edge.NewUDPSocket(p)
				if err := edge.SendTo(p, s, srv.Addr, 7, make([]byte, 12000)); err != nil {
					t.Error(err)
				}
			})
			eng.RunFor(200 * sim.Millisecond)
			if arch != core.ArchEarlyDemux {
				if n := srv.EchoReplies(); n != 1 {
					t.Errorf("server sent %d echo replies, want 1", n)
				}
				if n := gw.EchoReplies(); n != 0 {
					t.Errorf("gateway sent %d echo replies, want 0", n)
				}
			}
			if len(got) != 1 || got[0] != 12000 {
				t.Errorf("server received datagrams of %v bytes, want one of 12000", got)
			}
		})
	}
}

// sinkUDP runs a UDP sink on port 7 of the server and returns the
// delivered-datagram count.
func sinkUDP(t *Topology) *int {
	var got int
	srv := t.Server
	srv.K.Spawn("sink", 0, func(p *kernel.Proc) {
		s := srv.NewUDPSocket(p)
		_ = srv.BindUDP(s, 7)
		for {
			if _, err := srv.RecvFrom(p, s); err != nil {
				return
			}
			got++
		}
	})
	return &got
}
