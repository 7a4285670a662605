package exp

// WAN: the Fig 3 overload story at internet fan-in scale. The paper
// measured receive livelock with one LAN client; here an aggregated
// population of a million modeled clients (internal/pop: a handful of
// stackless procs, not a process per client) offers open-loop load
// through multi-hop topologies (internal/topo) whose transit gateways
// run the same kernel architecture as the server. Under eager (BSD)
// processing the gateways are receive-livelock victims themselves, so
// the collapse compounds per hop; under LRP both the gateways and the
// server shed load early and goodput holds. Two cells additionally run
// per-hop impairment from the shipped scenario library, tying the
// fault pipeline into the topology layer.

import (
	"fmt"

	"lrp/internal/app"
	"lrp/internal/core"
	"lrp/internal/netsim"
	"lrp/internal/pkt"
	"lrp/internal/pop"
	"lrp/internal/results"
	"lrp/internal/runner"
	"lrp/internal/sim"
	"lrp/internal/topo"
	"lrp/scenarios"
)

// WANPoint and WANSeries alias the results row types.
type (
	WANPoint  = results.WANPoint
	WANSeries = results.WANSeries
)

// wanClients is the modeled client population behind each topology's
// edges: 2^20, the full synthetic identity space.
const wanClients = 1 << 20

// wanCell is one sweep cell: a topology, optionally impaired per hop by
// a named scenario.
type wanCell struct {
	topo     string
	impaired string
}

// wanCellList enumerates the sweep: the three clean topologies, then
// the long-haul chain under bursty WAN loss and the fan-in tree under
// datacenter incast congestion.
func wanCellList() []wanCell {
	return []wanCell{
		{topo: "1hop"},
		{topo: "chain3"},
		{topo: "tree16"},
		{topo: "chain3", impaired: "flaky-wan"},
		{topo: "tree16", impaired: "datacenter-incast"},
	}
}

// wanRates returns the offered-load axis (aggregate population rate,
// pkts/s). The server saturates near 8k pkt/s (fig3's cost model and
// per-packet compute), so the axis spans well past the cliff.
func wanRates(quick bool) []int64 {
	if quick {
		return []int64{4000, 10000, 16000}
	}
	return []int64{2000, 4000, 6000, 9000, 12000, 16000}
}

// wanSystems are the kernels compared: the gateways of every topology
// run the same architecture as the server, so the comparison covers the
// whole path, not just the endpoint.
func wanSystems() []System {
	return []System{
		{Name: "4.4 BSD", Arch: core.ArchBSD, Costs: core.DefaultCosts},
		{Name: "NI-LRP", Arch: core.ArchNILRP, Costs: core.DefaultCosts},
		{Name: "SOFT-LRP", Arch: core.ArchSoftLRP, Costs: core.DefaultCosts},
	}
}

// wanBuild constructs the cell's topology over a fresh world.
func wanBuild(cell wanCell, sys System, opt Options) (*sim.Engine, *topo.Topology) {
	eng := sim.NewEngine()
	nw := netsim.New(eng)
	opt.applyFaults(nw)
	spec := topo.Spec{
		Eng: eng,
		Net: nw,
		Make: func(name string, addr pkt.Addr) *core.Host {
			return core.NewHost(eng, nw, core.Config{
				Name: name, Addr: addr, Arch: sys.Arch, Costs: sys.Costs(),
			})
		},
	}
	var t *topo.Topology
	switch cell.topo {
	case "1hop":
		t = topo.Direct(spec)
	case "chain3":
		t = topo.Chain(spec, 2)
	case "tree16":
		t = topo.FanIn(spec, 4, 2)
	default:
		panic("wan: unknown topology " + cell.topo)
	}
	if err := t.Validate(); err != nil {
		panic(err)
	}
	return eng, t
}

// WAN runs the internet-scale sweep and returns one series per
// (topology cell, system) pair.
func WAN(opt Options) []WANSeries {
	cells := wanCellList()
	rates := wanRates(opt.Quick)
	type axis struct {
		ci int
		ri int
	}
	var ax []axis
	for ci := range cells {
		for ri := range rates {
			ax = append(ax, axis{ci, ri})
		}
	}
	spec := runner.Spec[System, axis, WANPoint]{
		Systems: wanSystems(),
		Axis:    ax,
		Run: func(sys System, a axis) WANPoint {
			cell, rate := cells[a.ci], rates[a.ri]
			var p WANPoint
			labeled(sys.Name, func() { p = wanPoint(sys, cell, rate, opt) })
			name := cell.topo
			if cell.impaired != "" {
				name += "+" + cell.impaired
			}
			opt.progress(fmt.Sprintf("wan: %s %s offered=%d goodput=%.0f srvdrops=%d gwdrops=%d",
				sys.Name, name, rate, p.GoodputPps, p.ServerDrops, p.GwDrops))
			return p
		},
	}
	grid := runner.Sweep(opt.pool(), spec)
	var out []WANSeries
	for ci, cell := range cells {
		for si, sys := range spec.Systems {
			s := WANSeries{
				Topology: cell.topo,
				System:   sys.Name,
				Clients:  wanClients,
				Procs:    wanProcs(cell.topo),
				Impaired: cell.impaired,
			}
			for ai, a := range ax {
				if a.ci == ci {
					s.Points = append(s.Points, grid[si][ai])
				}
			}
			out = append(out, s)
		}
	}
	return out
}

// wanProcs is the number of stackless generator procs a topology's
// population aggregates into: one per edge attach point.
func wanProcs(topoName string) int {
	if topoName == "tree16" {
		return 16
	}
	return 1
}

// wanPoint measures one (system, cell, offered) world: aggregated
// populations on every edge, a blast sink on the server, forwarding
// gateways between.
func wanPoint(sys System, cell wanCell, offered int64, opt Options) WANPoint {
	eng, t := wanBuild(cell, sys, opt)
	defer t.Shutdown()
	if cell.impaired != "" {
		plan, err := scenarios.Load(cell.impaired)
		if err != nil {
			panic(err)
		}
		// Reseed per sweep point so adjacent offered-load cells do not
		// replay identical impairment sequences.
		plan.Seed ^= opt.Seed + uint64(offered)*0x9e3779b9
		if err := t.ImpairSegments(plan); err != nil {
			panic(err)
		}
	}

	sink := &app.BlastSink{
		Host:           t.Server,
		Port:           7,
		PerPktCompute:  10,
		DisturbPenalty: t.Server.CM.RxDisturbPenalty,
	}
	sink.Start()

	edges := t.Edges
	per := wanClients / len(edges)
	for i, e := range edges {
		cfg := pop.Config{
			Clients:    per,
			RatePps:    float64(offered) / float64(len(edges)),
			SizeMin:    14,
			SizeMax:    1400,
			SizeAlpha:  1.3,
			ClientBase: i * per,
			Seed:       opt.Seed + uint64(offered)*31 + uint64(i) + 0xA11,
		}
		if cell.impaired != "" {
			// Impaired cells exercise the population's full model:
			// flash-crowd modulation and connection churn on top of the
			// Poisson base load.
			cfg.FlashFactor = 3
			cfg.CalmMeanUs = 400 * sim.Millisecond
			cfg.FlashMeanUs = 100 * sim.Millisecond
			cfg.ChurnPerSec = 50
		}
		g := &pop.Population{
			Host:  e,
			Net:   t.Net,
			Src:   e.Addr,
			Dst:   t.Server.Addr,
			DPort: 7,
			Cfg:   cfg,
		}
		g.Start()
	}

	warm, measure := 500*sim.Millisecond, 2*sim.Second
	if opt.Quick {
		warm, measure = 200*sim.Millisecond, 600*sim.Millisecond
	}
	eng.RunFor(warm)
	sink.Received.Reset(eng.Now())
	preSrv := hostDrops(t.Server)
	var preGw, preFwd uint64
	for _, g := range t.Gateways {
		preGw += hostDrops(g)
		preFwd += g.ForwardStats().Forwarded
	}
	eng.RunFor(measure)
	p := WANPoint{
		OfferedPps:  offered,
		GoodputPps:  sink.Received.Rate(eng.Now()),
		ServerDrops: hostDrops(t.Server) - preSrv,
	}
	var gw, fwd uint64
	for _, g := range t.Gateways {
		gw += hostDrops(g)
		fwd += g.ForwardStats().Forwarded
	}
	p.GwDrops = gw - preGw
	p.Forwarded = fwd - preFwd
	return p
}
