package main

// The four workload recipes. Each rebuilds, world for world, an archived
// lrpbench experiment from the public constructors only, so at seed 1
// every world's output must equal its archived value exactly.

import (
	"fmt"

	"lrp/internal/app"
	"lrp/internal/core"
	"lrp/internal/netsim"
	"lrp/internal/nic"
	"lrp/internal/pkt"
	"lrp/internal/pop"
	"lrp/internal/results"
	"lrp/internal/sim"
	"lrp/internal/smp"
	"lrp/internal/topo"
	"lrp/scenarios"
)

// recipe is one workload: its worlds for a seed, where its archived
// outputs live, and the paper-shape check of one sweep's outputs.
type recipe struct {
	name    string
	archive string // results file, relative to the repository root
	exp     string // experiment name inside the archive
	reps    int    // sweeps per pass
	worlds  func(seed uint64) []world
	// check assembles one sweep's outputs, in world order, into the
	// experiment's series and runs its shape checks.
	check func(outs []any) []results.Violation
}

var recipes = []recipe{
	{
		name:    "udp-overload",
		archive: "results/lrpbench_full.json",
		exp:     "fig3",
		reps:    1,
		worlds:  fig3Worlds,
		check:   func(outs []any) []results.Violation { return results.CheckFig3(fig3Series(outs)) },
	},
	{
		name:    "tcp-web",
		archive: "results/lrpbench_full.json",
		exp:     "fig5",
		reps:    1,
		worlds:  fig5Worlds,
		check:   func(outs []any) []results.Violation { return results.CheckFig5(fig5Series(outs)) },
	},
	{
		name:    "smp-rss",
		archive: "results/lrpbench_smp.json",
		exp:     "smp",
		reps:    3,
		worlds:  smpWorlds,
		check:   func(outs []any) []results.Violation { return results.CheckSMP(smpSeries(outs)) },
	},
	{
		name:    "wan",
		archive: "results/lrpbench_wan.json",
		exp:     "wan",
		reps:    1,
		worlds:  wanWorlds,
		check:   func(outs []any) []results.Violation { return results.CheckWAN(wanSeries(outs)) },
	},
}

func findRecipe(name string) (recipe, bool) {
	for _, r := range recipes {
		if r.name == name {
			return r, true
		}
	}
	return recipe{}, false
}

// flatten lists an archived experiment's points in world order.
func flatten(e *results.Experiment) []any {
	var out []any
	for _, s := range e.Fig3 {
		for _, p := range s.Points {
			out = append(out, p)
		}
	}
	for _, s := range e.Fig5 {
		for _, p := range s.Points {
			out = append(out, p)
		}
	}
	for _, s := range e.SMP {
		for _, p := range s.Points {
			out = append(out, p)
		}
	}
	for _, s := range e.WAN {
		for _, p := range s.Points {
			out = append(out, p)
		}
	}
	return out
}

// system is a kernel configuration under test.
type system struct {
	name  string
	short string // metric-name form
	arch  core.Arch
	costs func() *core.CostModel
}

var (
	sysBSD   = system{"4.4 BSD", "bsd", core.ArchBSD, core.DefaultCosts}
	sysNI    = system{"NI-LRP", "ni-lrp", core.ArchNILRP, core.DefaultCosts}
	sysSoft  = system{"SOFT-LRP", "soft-lrp", core.ArchSoftLRP, core.DefaultCosts}
	sysEarly = system{"Early-Demux", "early-demux", core.ArchEarlyDemux, core.DefaultCosts}
	sysPoll  = system{"Polling (M&R)", "polling", core.ArchPolling, core.DefaultCosts}
)

// Addresses of the LAN experiments: client A, server B, background C.
var (
	addrA = pkt.IP(10, 0, 0, 1)
	addrB = pkt.IP(10, 0, 0, 2)
	addrC = pkt.IP(10, 0, 0, 3)
)

// lanHosts builds n hosts A, B, C of one system on a fresh network.
func lanHosts(m *meter, eng *sim.Engine, nw *netsim.Network, sys system, n int) []*core.Host {
	end := m.span("core.NewHost")
	defer end()
	addrs := []pkt.Addr{addrA, addrB, addrC}
	names := []string{"A", "B", "C"}
	hosts := make([]*core.Host, n)
	for i := range hosts {
		hosts[i] = core.NewHost(eng, nw, core.Config{Name: names[i], Addr: addrs[i], Arch: sys.arch, Costs: sys.costs()})
	}
	return hosts
}

// --- udp-overload: Fig. 3 -------------------------------------------------

var fig3Systems = []system{sysBSD, sysNI, sysSoft, sysEarly, sysPoll}

func fig3Rates() []int64 {
	var rates []int64
	for r := int64(1000); r <= 20000; r += 1000 {
		rates = append(rates, r)
	}
	return rates
}

func fig3Worlds(seed uint64) []world {
	var ws []world
	for _, sys := range fig3Systems {
		for _, rate := range fig3Rates() {
			ws = append(ws, fig3World(sys, rate, seed))
		}
	}
	return ws
}

// fig3World: a client blasts 14-byte UDP packets at a server process that
// receives and discards them; 1 s warm-up, 3 s measured.
func fig3World(sys system, rate int64, seed uint64) world {
	return world{id: fmt.Sprintf("udp-overload/%s/%d", sys.short, rate), run: func(m *meter) any {
		eng := sim.NewEngine()
		nw := netsim.New(eng)
		hosts := lanHosts(m, eng, nw, sys, 2)
		server := hosts[1]
		end := m.span("app.Start")
		sink := &app.BlastSink{Host: server, Port: 7, PerPktCompute: 10, DisturbPenalty: server.CM.RxDisturbPenalty}
		sink.Start()
		src := &app.BlastSource{
			Net: nw, Src: addrA, Dst: addrB, SPort: 9000, DPort: 7, Size: 14,
			Rate: rate, Poisson: true, Rng: sim.NewRand(seed + uint64(rate) + 1),
		}
		src.Start()
		end()
		m.runFor(eng, sim.Second)
		sink.Received.Reset(eng.Now())
		m.runFor(eng, 3*sim.Second)
		out := results.Fig3Point{Offered: rate, Delivered: sink.Received.Rate(eng.Now())}
		m.finish(eng, nw, hosts)
		return out
	}}
}

func fig3Series(outs []any) []results.Fig3Series {
	var ss []results.Fig3Series
	n := len(fig3Rates())
	for i, sys := range fig3Systems {
		s := results.Fig3Series{System: sys.name}
		for _, o := range outs[i*n : (i+1)*n] {
			s.Points = append(s.Points, o.(results.Fig3Point))
		}
		ss = append(ss, s)
	}
	return ss
}

// --- tcp-web: Fig. 5 ------------------------------------------------------

var (
	fig5Systems = []system{sysBSD, sysSoft}
	fig5Rates   = []int64{0, 2000, 4000, 6000, 8000, 10000, 12000, 14000, 16000, 18000, 20000}
)

func fig5Worlds(seed uint64) []world {
	var ws []world
	for _, sys := range fig5Systems {
		for _, rate := range fig5Rates {
			ws = append(ws, fig5World(sys, rate, seed))
		}
	}
	return ws
}

// fig5World: eight HTTP/1.0 clients on A fetch a 1300-byte document from
// B while C floods a never-accepting dummy server on B with SYNs. TIME_WAIT
// is 500 ms and LRP pays the redundant PCB lookup, as in the paper.
func fig5World(sys system, synRate int64, seed uint64) world {
	costs := func() *core.CostModel {
		cm := sys.costs()
		cm.TimeWaitDur = 500 * sim.Millisecond
		cm.RedundantPCBLookup = true
		return cm
	}
	sys3 := system{sys.name, sys.short, sys.arch, costs}
	return world{id: fmt.Sprintf("tcp-web/%s/%d", sys.short, synRate), run: func(m *meter) any {
		eng := sim.NewEngine()
		nw := netsim.New(eng)
		hosts := lanHosts(m, eng, nw, sys3, 3)
		clientA, server := hosts[0], hosts[1]
		end := m.span("app.Start")
		httpd := &app.HTTPServer{Host: server, Port: 80, Backlog: 32, DocSize: 1300}
		httpd.Start()
		app.StartDummyServer(server, 99, 5)
		clients := make([]*app.HTTPClient, 8)
		for i := range clients {
			clients[i] = &app.HTTPClient{Host: clientA, ServerAddr: addrB, ServerPort: 80, Name: fmt.Sprintf("http-cli-%d", i)}
			clients[i].Start()
		}
		if synRate > 0 {
			flood := &app.SYNFlood{Net: nw, Src: addrC, Dst: addrB, DPort: 99, Rate: synRate, Rng: sim.NewRand(seed + uint64(synRate) + 5)}
			flood.Start()
		}
		end()
		completed := func() (n uint64) {
			for _, c := range clients {
				n += c.Completed.Total()
			}
			return n
		}
		const measure = 6 * sim.Second
		m.runFor(eng, 3*sim.Second)
		base := completed()
		m.runFor(eng, measure)
		out := results.Fig5Point{SYNRate: synRate, HTTPPerSec: float64(completed()-base) / (float64(measure) / 1e6)}
		m.finish(eng, nw, hosts)
		return out
	}}
}

func fig5Series(outs []any) []results.Fig5Series {
	var ss []results.Fig5Series
	n := len(fig5Rates)
	for i, sys := range fig5Systems {
		s := results.Fig5Series{System: sys.name}
		for _, o := range outs[i*n : (i+1)*n] {
			s.Points = append(s.Points, o.(results.Fig5Point))
		}
		ss = append(ss, s)
	}
	return ss
}

// --- smp-rss: the lrpbench smp sweep -------------------------------------

// smpCosts raises the NIC's embedded demux cost to 60 µs so NI-LRP's
// adaptor saturates inside the swept load.
func smpCosts() *core.CostModel {
	cm := core.DefaultCosts()
	cm.NICDemuxCost = 60
	return cm
}

var (
	smpSystems = []system{
		{sysBSD.name, sysBSD.short, sysBSD.arch, smpCosts},
		{sysNI.name, sysNI.short, sysNI.arch, smpCosts},
		{sysSoft.name, sysSoft.short, sysSoft.arch, smpCosts},
	}
	smpCores = []int{1, 2, 4}
)

const smpPerCoreRate = 6000

func smpWorlds(seed uint64) []world {
	var ws []world
	for _, sys := range smpSystems {
		for _, multi := range []bool{false, true} {
			for _, cores := range smpCores {
				ws = append(ws, smpWorld(sys, multi, cores, seed))
			}
		}
	}
	return ws
}

// steerPort returns a source port whose RSS hash lands the flow
// (addrC -> addrB, sport -> dport) on queue q of nq.
func steerPort(nq, q int, dport uint16) uint16 {
	for s := uint16(9000); ; s++ {
		if int(nic.RSSHash(addrC, addrB, s, dport)%uint32(nq)) == q {
			return s
		}
	}
}

// smpWorld: one RSS-steered 6k pkt/s blast flow per server CPU into a sink
// on that CPU, plus a 2 ms ping-pong probe; 0.5 s warm-up, 2 s measured.
func smpWorld(sys system, multi bool, cores int, seed uint64) world {
	mode := "single"
	if multi {
		mode = "multi"
	}
	return world{id: fmt.Sprintf("smp-rss/%s/%s/%d", sys.short, mode, cores), run: func(m *meter) any {
		eng := sim.NewEngine()
		nw := netsim.New(eng)
		queues := 1
		if multi {
			queues = cores
		}
		end := m.span("core.NewHost")
		client := core.NewHost(eng, nw, core.Config{Name: "A", Addr: addrA, Arch: sys.arch, Costs: sys.costs()})
		server := core.NewHost(eng, nw, core.Config{
			Name: "B", Addr: addrB, Arch: sys.arch, Costs: sys.costs(), CPUs: cores, RxQueues: queues,
		})
		end()
		const warm, measure = 500 * sim.Millisecond, 2 * sim.Second
		end = m.span("app.Start")
		sinks := make([]*app.BlastSink, cores)
		for i := range sinks {
			dport := uint16(100 + i)
			sinks[i] = &app.BlastSink{Host: server, Port: dport, CPU: i, PerPktCompute: 10, DisturbPenalty: server.CM.RxDisturbPenalty}
			sinks[i].Start()
			src := &app.BlastSource{
				Net: nw, Src: addrC, Dst: addrB, SPort: steerPort(cores, i, dport), DPort: dport, Size: 14,
				Rate: smpPerCoreRate, Poisson: true, Rng: sim.NewRand(seed + uint64(0x53AD0+cores*31+i)),
			}
			src.Start()
		}
		pps := &app.PingPongServer{Host: server, Port: 200, CPU: cores - 1}
		pps.Start()
		ppc := &app.PingPongClient{
			Host: client, ServerAddr: addrB, ServerPort: 200, MsgSize: 14,
			Iterations: int(measure / (2 * sim.Millisecond)), StartAfter: warm,
			Interval: 2 * sim.Millisecond, ReplyTimeout: 20 * sim.Millisecond,
		}
		ppc.Start()
		end()
		m.runFor(eng, warm)
		for _, s := range sinks {
			s.Received.Reset(eng.Now())
		}
		var before []smp.CPUStats
		if server.Cluster != nil {
			before = server.Cluster.Stats()
		}
		m.runFor(eng, measure)
		p := results.SMPPoint{Cores: cores, OfferedPps: int64(smpPerCoreRate * cores)}
		for _, s := range sinks {
			p.GoodputPps += s.Received.Rate(eng.Now())
		}
		if server.Cluster != nil {
			after := server.Cluster.Stats()
			for i := range after {
				p.RemoteWakes += after[i].RemoteWakes - before[i].RemoteWakes
				p.IPIs += after[i].IPIsDelivered - before[i].IPIsDelivered
				p.Steals += after[i].Steals - before[i].Steals
				p.Halts += after[i].Halts - before[i].Halts
			}
		}
		// Tail window: the last probes resolve before the histogram is read.
		m.runFor(eng, 40*sim.Millisecond)
		p.P99Us = -1
		if ppc.RTT.Count() > 0 {
			p.P99Us = ppc.RTT.Percentile(99)
		}
		m.finish(eng, nw, []*core.Host{client, server})
		return p
	}}
}

func smpSeries(outs []any) []results.SMPSeries {
	var ss []results.SMPSeries
	i := 0
	for _, sys := range smpSystems {
		for _, mode := range []string{"single", "multi"} {
			s := results.SMPSeries{System: sys.name, Queues: mode}
			for range smpCores {
				s.Points = append(s.Points, outs[i].(results.SMPPoint))
				i++
			}
			ss = append(ss, s)
		}
	}
	return ss
}

// --- wan: the lrpbench wan sweep -----------------------------------------

const wanClients = 1 << 20

type wanCell struct{ topo, impaired string }

var (
	wanCells = []wanCell{
		{topo: "1hop"},
		{topo: "chain3"},
		{topo: "tree16"},
		{topo: "chain3", impaired: "flaky-wan"},
		{topo: "tree16", impaired: "datacenter-incast"},
	}
	wanRates   = []int64{2000, 4000, 6000, 9000, 12000, 16000}
	wanSystems = []system{sysBSD, sysNI, sysSoft}
)

func wanWorlds(seed uint64) []world {
	var ws []world
	for _, cell := range wanCells {
		for _, sys := range wanSystems {
			for _, rate := range wanRates {
				ws = append(ws, wanWorld(cell, sys, rate, seed))
			}
		}
	}
	return ws
}

// wanWorld: aggregated client populations on every edge of a topology
// whose gateways run the server's kernel; impaired cells add flash crowds,
// churn and a per-hop fault pipeline. 0.5 s warm-up, 2 s measured.
func wanWorld(cell wanCell, sys system, offered int64, seed uint64) world {
	name := cell.topo
	if cell.impaired != "" {
		name += "+" + cell.impaired
	}
	return world{id: fmt.Sprintf("wan/%s/%s/%d", name, sys.short, offered), run: func(m *meter) any {
		eng := sim.NewEngine()
		nw := netsim.New(eng)
		spec := topo.Spec{Eng: eng, Net: nw, Make: func(name string, addr pkt.Addr) *core.Host {
			end := m.span("core.NewHost")
			defer end()
			return core.NewHost(eng, nw, core.Config{Name: name, Addr: addr, Arch: sys.arch, Costs: sys.costs()})
		}}
		var t *topo.Topology
		end := m.span("topo." + cell.topo)
		switch cell.topo {
		case "1hop":
			t = topo.Direct(spec)
		case "chain3":
			t = topo.Chain(spec, 2)
		case "tree16":
			t = topo.FanIn(spec, 4, 2)
		}
		if err := t.Validate(); err != nil {
			panic(err)
		}
		if cell.impaired != "" {
			plan, err := scenarios.Load(cell.impaired)
			if err != nil {
				panic(err)
			}
			plan.Seed ^= seed + uint64(offered)*0x9e3779b9
			if err := t.ImpairSegments(plan); err != nil {
				panic(err)
			}
		}
		end()
		end = m.span("pop.Start")
		sink := &app.BlastSink{Host: t.Server, Port: 7, PerPktCompute: 10, DisturbPenalty: t.Server.CM.RxDisturbPenalty}
		sink.Start()
		per := wanClients / len(t.Edges)
		for i, e := range t.Edges {
			cfg := pop.Config{
				Clients: per, RatePps: float64(offered) / float64(len(t.Edges)),
				SizeMin: 14, SizeMax: 1400, SizeAlpha: 1.3, ClientBase: i * per,
				Seed: seed + uint64(offered)*31 + uint64(i) + 0xA11,
			}
			if cell.impaired != "" {
				cfg.FlashFactor = 3
				cfg.CalmMeanUs = 400 * sim.Millisecond
				cfg.FlashMeanUs = 100 * sim.Millisecond
				cfg.ChurnPerSec = 50
			}
			g := &pop.Population{Host: e, Net: t.Net, Src: e.Addr, Dst: t.Server.Addr, DPort: 7, Cfg: cfg}
			g.Start()
		}
		end()
		m.runFor(eng, 500*sim.Millisecond)
		sink.Received.Reset(eng.Now())
		gwDrops := func() (drops, fwd uint64) {
			for _, g := range t.Gateways {
				drops += hostDrops(g)
				fwd += g.ForwardStats().Forwarded
			}
			return drops, fwd
		}
		preSrv := hostDrops(t.Server)
		preGw, preFwd := gwDrops()
		m.runFor(eng, 2*sim.Second)
		gw, fwd := gwDrops()
		p := results.WANPoint{
			OfferedPps:  offered,
			GoodputPps:  sink.Received.Rate(eng.Now()),
			ServerDrops: hostDrops(t.Server) - preSrv,
			GwDrops:     gw - preGw,
			Forwarded:   fwd - preFwd,
		}
		hosts := append(append(append([]*core.Host(nil), t.Edges...), t.Gateways...), t.Server)
		m.finish(eng, nw, hosts)
		return p
	}}
}

// hostDrops sums every drop location on one host.
func hostDrops(h *core.Host) uint64 {
	st := h.Stats()
	ns := h.NIC.Stats()
	return st.IPQDrops + st.ChannelDrops + st.EarlyDrops + st.SockQDrops +
		st.NoMatchDrops + st.MalformedDrops + st.ProtoDrops + st.DisabledDrops +
		ns.RxRingDrops + ns.NICDrops
}

func wanSeries(outs []any) []results.WANSeries {
	var ss []results.WANSeries
	i := 0
	for _, cell := range wanCells {
		for _, sys := range wanSystems {
			procs := 1
			if cell.topo == "tree16" {
				procs = 16
			}
			s := results.WANSeries{Topology: cell.topo, System: sys.name, Clients: wanClients, Procs: procs, Impaired: cell.impaired}
			for range wanRates {
				s.Points = append(s.Points, outs[i].(results.WANPoint))
				i++
			}
			ss = append(ss, s)
		}
	}
	return ss
}
