package exp

// SMP: multi-core scaling curves in the COREC tradition — single-queue
// versus multi-queue receive on M host CPUs. The paper's evaluation is
// uniprocessor, but its central tension reappears on SMP hardware: a
// single interrupt line serializes all receive processing on one CPU
// (the uniprocessor picture, however many cores exist), while RSS
// steering spreads flows — and their interrupt work — across cores.
// NI-LRP adds the third corner of the tradeoff: its demultiplexing
// runs on the NIC's embedded processor, which does not scale with host
// cores, so NI-LRP's curve climbs with core count only until the
// adaptor saturates.

import (
	"fmt"

	"lrp/internal/app"
	"lrp/internal/core"
	"lrp/internal/netsim"
	"lrp/internal/nic"
	"lrp/internal/results"
	"lrp/internal/runner"
	"lrp/internal/sim"
	"lrp/internal/smp"
)

// SMPPoint and SMPSeries alias the results row types.
type (
	SMPPoint  = results.SMPPoint
	SMPSeries = results.SMPSeries
)

// smpCores is the swept core-count axis.
var smpCores = []int{1, 2, 4}

// smpPerCoreRate is the blast rate of each per-core flow, chosen so the
// aggregate at 4 cores comfortably overloads a single interrupt CPU
// (the single-queue ceiling shows) while one flow stays well inside one
// CPU's capacity (the multi-queue curve can scale).
const smpPerCoreRate = 6000

// smpCosts is the default model with the NIC's embedded per-packet
// demux cost raised: host CPUs multiply with the core count but the
// adaptor's processor does not, and with the default 10 µs its
// saturation point (~100k pkt/s) sits far outside the swept load. At
// 60 µs the adaptor saturates near 16.7k pkt/s — between the 2-core
// and 4-core aggregate offered loads — so NI-LRP's scaling limit lands
// inside the experiment.
func smpCosts() *core.CostModel {
	cm := core.DefaultCosts()
	cm.NICDemuxCost = 60
	return cm
}

// smpSystems are the three kernels with a defined parallel story: BSD
// (per-CPU softnet queues under multi-queue), SOFT-LRP (per-queue soft
// demux), NI-LRP (per-channel interrupt routing).
func smpSystems() []System {
	return []System{
		{Name: "4.4 BSD", Arch: core.ArchBSD, Costs: smpCosts},
		{Name: "NI-LRP", Arch: core.ArchNILRP, Costs: smpCosts},
		{Name: "SOFT-LRP", Arch: core.ArchSoftLRP, Costs: smpCosts},
	}
}

// smpCell is one sweep cell: a queue mode at a core count.
type smpCell struct {
	multi bool
	cores int
}

// smpCells enumerates the sweep: the single-queue curve then the
// multi-queue curve, each across the core axis.
func smpCells() []smpCell {
	var cells []smpCell
	for _, multi := range []bool{false, true} {
		for _, cores := range smpCores {
			cells = append(cells, smpCell{multi: multi, cores: cores})
		}
	}
	return cells
}

// steerPort returns a source port whose RSS hash lands the flow
// (AddrC -> AddrB, sport -> dport) on queue q of nq. The search is
// deterministic, so the same flows are offered in every mode.
func steerPort(nq, q int, dport uint16) uint16 {
	for s := uint16(9000); ; s++ {
		if int(nic.RSSHash(AddrC, AddrB, s, dport)%uint32(nq)) == q {
			return s
		}
	}
}

// SMP runs the scaling sweep and returns one series per (system,
// queue-mode) pair, each with a point per core count.
func SMP(opt Options) []SMPSeries {
	cells := smpCells()
	idx := make([]int, len(cells))
	for i := range idx {
		idx[i] = i
	}
	spec := runner.Spec[System, int, SMPPoint]{
		Systems: smpSystems(),
		Axis:    idx,
		Run: func(sys System, ci int) SMPPoint {
			cell := cells[ci]
			var p SMPPoint
			labeled(sys.Name, func() { p = smpPoint(sys, cell.multi, cell.cores, opt) })
			mode := "single"
			if cell.multi {
				mode = "multi"
			}
			opt.progress(fmt.Sprintf("smp: %s %s cores=%d goodput=%.0f p99=%dµs ipis=%d steals=%d",
				sys.Name, mode, cell.cores, p.GoodputPps, p.P99Us, p.IPIs, p.Steals))
			return p
		},
	}
	grid := runner.Sweep(opt.pool(), spec)
	var out []SMPSeries
	for si, sys := range spec.Systems {
		for _, multi := range []bool{false, true} {
			mode := "single"
			if multi {
				mode = "multi"
			}
			s := SMPSeries{System: sys.Name, Queues: mode}
			for ci, cell := range cells {
				if cell.multi == multi {
					s.Points = append(s.Points, grid[si][ci])
				}
			}
			out = append(out, s)
		}
	}
	return out
}

// smpPoint measures one (system, mode, cores) cell: per-core RSS-steered
// blast flows into per-CPU sink processes, a latency probe beside them,
// and the cluster's SMP counters over the measurement window.
func smpPoint(sys System, multi bool, cores int, opt Options) SMPPoint {
	eng := sim.NewEngine()
	nw := netsim.New(eng)
	opt.applyFaults(nw)
	client := core.NewHost(eng, nw, core.Config{
		Name: "A", Addr: AddrA, Arch: sys.Arch, Costs: sys.Costs(),
	})
	queues := 1
	if multi {
		queues = cores
	}
	server := core.NewHost(eng, nw, core.Config{
		Name: "B", Addr: AddrB, Arch: sys.Arch, Costs: sys.Costs(),
		CPUs: cores, RxQueues: queues,
	})
	defer client.Shutdown()
	defer server.Shutdown()

	// One flow per core: sink i lives on CPU i and its flow's source port
	// is chosen so the RSS hash steers it to queue i (affinity map is the
	// default queue i -> CPU i). The same ports are used in single-queue
	// mode, so both modes face byte-identical traffic.
	sinks := make([]*app.BlastSink, cores)
	for i := 0; i < cores; i++ {
		dport := uint16(100 + i)
		sinks[i] = &app.BlastSink{
			Host:           server,
			Port:           dport,
			CPU:            i,
			PerPktCompute:  10,
			DisturbPenalty: server.CM.RxDisturbPenalty,
		}
		sinks[i].Start()
		src := &app.BlastSource{
			Net:     nw,
			Src:     AddrC,
			Dst:     AddrB,
			SPort:   steerPort(cores, i, dport),
			DPort:   dport,
			Size:    14,
			Rate:    smpPerCoreRate,
			Poisson: true,
			Rng:     sim.NewRand(opt.Seed + uint64(0x53AD0+cores*31+i)),
		}
		src.Start()
	}

	warm, measure := 500*sim.Millisecond, 2*sim.Second
	if opt.Quick {
		warm, measure = 200*sim.Millisecond, 600*sim.Millisecond
	}
	pps := &app.PingPongServer{Host: server, Port: 200, CPU: cores - 1}
	pps.Start()
	ppc := &app.PingPongClient{
		Host:         client,
		ServerAddr:   AddrB,
		ServerPort:   200,
		MsgSize:      14,
		Iterations:   int(measure / (2 * sim.Millisecond)),
		StartAfter:   warm,
		Interval:     2 * sim.Millisecond,
		ReplyTimeout: 20 * sim.Millisecond,
	}
	ppc.Start()

	eng.RunFor(warm)
	for _, s := range sinks {
		s.Received.Reset(eng.Now())
	}
	var before []smp.CPUStats
	if server.Cluster != nil {
		before = server.Cluster.Stats()
	}
	eng.RunFor(measure)
	goodput := 0.0
	for _, s := range sinks {
		goodput += s.Received.Rate(eng.Now())
	}
	p := SMPPoint{
		Cores:      cores,
		OfferedPps: int64(smpPerCoreRate * cores),
		GoodputPps: goodput,
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
	// Tail window: let the last probes resolve before reading the
	// histogram.
	eng.RunFor(40 * sim.Millisecond)
	p.P99Us = -1
	if ppc.RTT.Count() > 0 {
		p.P99Us = ppc.RTT.Percentile(99)
	}
	return p
}
