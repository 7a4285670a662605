package exp

// Faults: per-architecture robustness curves under injected network and
// host faults (internal/fault). The paper evaluates the architectures
// under one adversary — overload — and related work shows the receive
// path also decides how a server weathers reordering (Wu et al.),
// bursty loss, duplication, corruption, link flaps, and adaptor-level
// failures. Each curve sweeps one impairment's severity and reports,
// for every kernel, the blast goodput a server process still consumes,
// the p99 ping-pong latency beside that blast, and the CPU share a
// competing compute process keeps — the same three axes (throughput,
// latency, CPU accounting) the paper's own figures use.

import (
	"fmt"

	"lrp/internal/app"
	"lrp/internal/fault"
	"lrp/internal/kernel"
	"lrp/internal/results"
	"lrp/internal/runner"
	"lrp/internal/sim"
)

// FaultPoint, FaultSeries and FaultCurve alias the results row types.
type (
	FaultPoint  = results.FaultPoint
	FaultSeries = results.FaultSeries
	FaultCurve  = results.FaultCurve
)

// flapPeriodUs is the link-flap cycle length; the severity axis is the
// fraction of each cycle the link is down.
const flapPeriodUs = 200_000

// faultBlastRate is the background blast rate for the UDP robustness
// rig: high enough that receive-path overhead shows, comfortably below
// every system's MLFRR (BSD's is ~7250 in the archived suite) so
// severity — not offered load — moves the curves.
const faultBlastRate = 5000

// faultCurveDef describes one impairment sweep: how to build the fault
// configuration for a given severity. install arms a fresh rig before
// the workload starts; severity 0 never installs anything, so every
// curve starts from an unimpaired baseline.
type faultCurveDef struct {
	impairment string
	axis       string
	sevs       []float64 // full severity axis (first entry 0)
	quick      []float64 // reduced axis for -quick
	install    func(r *rig, sev float64, seed uint64)
}

// portPlan returns an install that compiles a plan and attaches it to
// the server's port (traffic into B is impaired; replies are not).
func portPlan(mk func(seed uint64, sev float64) fault.Plan) func(*rig, float64, uint64) {
	return func(r *rig, sev float64, seed uint64) {
		if err := r.nw.SetPortFaults(AddrB, fault.MustNew(mk(seed, sev))); err != nil {
			panic(err)
		}
	}
}

// nicPlan returns an install that arms host-side faults on the server's
// adaptor and mbuf pool.
func nicPlan(mk func(r *rig, seed uint64, sev float64) fault.NICPlan) func(*rig, float64, uint64) {
	return func(r *rig, sev float64, seed uint64) {
		server := r.hosts[1]
		if _, err := fault.InstallNIC(r.eng, server.NIC, server.Pool, mk(r, seed, sev)); err != nil {
			panic(err)
		}
	}
}

// faultCurves is the UDP robustness sweep catalogue: every pipeline
// impairment plus the three host-side fault classes.
func faultCurves() []faultCurveDef {
	return []faultCurveDef{
		{
			impairment: fault.KindLoss, axis: "loss rate",
			sevs:  []float64{0, 0.05, 0.1, 0.2, 0.4},
			quick: []float64{0, 0.1, 0.4},
			install: portPlan(func(seed uint64, sev float64) fault.Plan {
				return fault.LossPlan(seed, sev)
			}),
		},
		{
			impairment: fault.KindGilbertElliott, axis: "average loss rate (burst dwell 10 pkts)",
			sevs:  []float64{0, 0.05, 0.1, 0.2, 0.4},
			quick: []float64{0, 0.1, 0.4},
			install: portPlan(func(seed uint64, sev float64) fault.Plan {
				return fault.GilbertElliottPlan(seed, sev, 10)
			}),
		},
		{
			impairment: fault.KindReorder, axis: "reorder rate (1 ms hold-back)",
			sevs:  []float64{0, 0.1, 0.25, 0.5},
			quick: []float64{0, 0.25, 0.5},
			install: portPlan(func(seed uint64, sev float64) fault.Plan {
				return fault.ReorderPlan(seed, sev, 1000)
			}),
		},
		{
			impairment: fault.KindDuplicate, axis: "duplication rate (50 µs copy gap)",
			sevs:  []float64{0, 0.1, 0.25, 0.5},
			quick: []float64{0, 0.25, 0.5},
			install: portPlan(func(seed uint64, sev float64) fault.Plan {
				return fault.DuplicatePlan(seed, sev, 50)
			}),
		},
		{
			impairment: fault.KindCorrupt, axis: "corruption rate",
			sevs:  []float64{0, 0.1, 0.25, 0.5},
			quick: []float64{0, 0.25, 0.5},
			install: portPlan(func(seed uint64, sev float64) fault.Plan {
				return fault.CorruptPlan(seed, sev)
			}),
		},
		{
			impairment: fault.KindJitter, axis: "jitter bound µs",
			sevs:  []float64{0, 200, 1000, 5000},
			quick: []float64{0, 1000, 5000},
			install: portPlan(func(seed uint64, sev float64) fault.Plan {
				return fault.JitterPlan(seed, int64(sev))
			}),
		},
		{
			impairment: fault.KindFlap, axis: "link-down fraction (200 ms cycle)",
			sevs:  []float64{0, 0.1, 0.25, 0.5},
			quick: []float64{0, 0.25, 0.5},
			install: portPlan(func(seed uint64, sev float64) fault.Plan {
				down := int64(sev * flapPeriodUs)
				return fault.FlapPlan(seed, down, flapPeriodUs-down)
			}),
		},
		{
			impairment: "ring-overrun", axis: "DMA-ring drop rate",
			sevs:  []float64{0, 0.1, 0.25, 0.5},
			quick: []float64{0, 0.25, 0.5},
			install: nicPlan(func(_ *rig, seed uint64, sev float64) fault.NICPlan {
				return fault.NICPlan{Seed: seed, RingOverrun: []fault.RingFault{{Rate: sev}}}
			}),
		},
		{
			impairment: "spurious-intr", axis: "spurious interrupts per second",
			sevs:  []float64{0, 1000, 5000, 20000},
			quick: []float64{0, 5000, 20000},
			install: nicPlan(func(_ *rig, seed uint64, sev float64) fault.NICPlan {
				return fault.NICPlan{Seed: seed, SpuriousIntrs: []fault.IntrFault{{PeriodUs: int64(1e6 / sev)}}}
			}),
		},
		{
			impairment: "pool-pressure", axis: "fraction of mbuf pool withheld",
			sevs:  []float64{0, 0.99, 0.997, 0.999},
			quick: []float64{0, 0.99, 0.999},
			install: nicPlan(func(r *rig, seed uint64, sev float64) fault.NICPlan {
				amount := int(sev * float64(r.hosts[1].CM.MbufPoolLimit))
				return fault.NICPlan{Seed: seed, PoolPressure: []fault.PressureFault{{Amount: amount}}}
			}),
		},
	}
}

// Faults runs every robustness curve: the UDP rig across all five
// kernels for each impairment class, then TCP goodput vs. reordering
// depth.
func Faults(opt Options) []FaultCurve {
	defs := faultCurves()
	out := make([]FaultCurve, 0, len(defs)+1)
	for ci, def := range defs {
		sevs := def.sevs
		if opt.Quick {
			sevs = def.quick
		}
		// The axis sweeps severity indices so each point can derive a
		// stable per-(curve, severity) seed for its plan and generators.
		idx := make([]int, len(sevs))
		for i := range idx {
			idx[i] = i
		}
		ci := ci
		def := def
		spec := runner.Spec[System, int, FaultPoint]{
			Name:    "faults/" + def.impairment,
			Systems: OverloadSystems(),
			Axis:    idx,
			Run: func(sys System, si int) FaultPoint {
				sev := sevs[si]
				seed := opt.Seed + uint64(ci*101+si+1)
				var p FaultPoint
				labeled(sys.Name, func() { p = udpFaultPoint(sys, sev, def.install, seed, opt) })
				opt.progress(fmt.Sprintf("faults/%s: %s sev=%g goodput=%.0f p99=%dµs lost=%d victim=%.2f",
					def.impairment, sys.Name, sev, p.GoodputPps, p.P99Us, p.ProbesLost, p.VictimShare))
				return p
			},
		}
		grid := runner.Sweep(opt.pool(), spec)
		curve := FaultCurve{Impairment: def.impairment, Axis: def.axis}
		for i, pts := range grid {
			curve.Series = append(curve.Series, FaultSeries{System: spec.Systems[i].Name, Points: pts})
		}
		out = append(out, curve)
	}
	out = append(out, tcpReorderCurve(opt))
	return out
}

// udpFaultPoint measures one (system, severity) cell of a UDP
// robustness curve: blast goodput into a consuming server process, p99
// ping-pong RTT alongside it, and the CPU share a competing compute
// process keeps, all over one measurement window.
func udpFaultPoint(sys System, sev float64, install func(*rig, float64, uint64), seed uint64, opt Options) FaultPoint {
	r := newRig(sys, 3, opt)
	defer r.shutdown()
	server := r.hosts[1]
	if sev != 0 && install != nil {
		install(r, sev, seed)
	}

	victim := server.K.SpawnStep("victim", 0, func(p *kernel.Proc) {
		p.ReqCompute(sim.Millisecond)
	})
	sink := &app.BlastSink{
		Host:           server,
		Port:           7,
		PerPktCompute:  10,
		DisturbPenalty: server.CM.RxDisturbPenalty,
	}
	sink.Start()
	src := &app.BlastSource{
		Net:     r.nw,
		Src:     AddrC,
		Dst:     AddrB,
		SPort:   9000,
		DPort:   7,
		Size:    14,
		Rate:    faultBlastRate,
		Poisson: true,
		Rng:     sim.NewRand(seed + 0x1000),
	}
	src.Start()

	warm, measure := 500*sim.Millisecond, 2*sim.Second
	if opt.Quick {
		warm, measure = 200*sim.Millisecond, 600*sim.Millisecond
	}
	pps := &app.PingPongServer{Host: server, Port: 8}
	pps.Start()
	ppc := &app.PingPongClient{
		Host:         r.hosts[0],
		ServerAddr:   AddrB,
		ServerPort:   8,
		MsgSize:      14,
		Iterations:   int(measure / (2 * sim.Millisecond)),
		StartAfter:   warm,
		Interval:     2 * sim.Millisecond,
		ReplyTimeout: 20 * sim.Millisecond,
	}
	ppc.Start()

	r.eng.RunFor(warm)
	sink.Received.Reset(r.eng.Now())
	vBase, t0 := victim.UTime, r.eng.Now()
	r.eng.RunFor(measure)
	goodput := sink.Received.Rate(r.eng.Now())
	share := float64(victim.UTime-vBase) / float64(r.eng.Now()-t0)
	// Tail window: let the last probes resolve (reply or timeout) so the
	// loss count is settled.
	r.eng.RunFor(40 * sim.Millisecond)

	p99 := int64(-1)
	if ppc.RTT.Count() > 0 {
		p99 = ppc.RTT.Percentile(99)
	}
	return FaultPoint{
		Severity:    sev,
		GoodputPps:  goodput,
		P99Us:       p99,
		ProbesLost:  ppc.Lost,
		VictimShare: share,
	}
}

// tcpReorderCurve sweeps TCP goodput against reordering depth: 10% of
// segments toward the server are held back by a growing delay, the
// delay-induced reordering Wu et al. show interacting with the receive
// architecture. Goodput is bytes landed in a fixed window, so a stalled
// transfer scores what it actually moved.
func tcpReorderCurve(opt Options) FaultCurve {
	delays := []int64{0, 200, 500, 1000, 2000}
	if opt.Quick {
		delays = []int64{0, 500, 2000}
	}
	idx := make([]int, len(delays))
	for i := range idx {
		idx[i] = i
	}
	spec := runner.Spec[System, int, FaultPoint]{
		Name:    "faults/tcp-reorder",
		Systems: LatencySystems(),
		Axis:    idx,
		Run: func(sys System, si int) FaultPoint {
			delay := delays[si]
			var p FaultPoint
			labeled(sys.Name, func() { p = tcpFaultPoint(sys, delay, opt.Seed+uint64(0x5000+si), opt) })
			opt.progress(fmt.Sprintf("faults/tcp-reorder: %s delay=%dµs tcp=%.1f Mbit/s", sys.Name, delay, p.TCPMbps))
			return p
		},
	}
	grid := runner.Sweep(opt.pool(), spec)
	curve := FaultCurve{Impairment: "tcp-reorder", Axis: "reorder hold-back µs (10% of segments)"}
	for i, pts := range grid {
		curve.Series = append(curve.Series, FaultSeries{System: spec.Systems[i].Name, Points: pts})
	}
	return curve
}

// tcpFaultPoint measures one TCP-vs-reordering cell.
func tcpFaultPoint(sys System, delayUs int64, seed uint64, opt Options) FaultPoint {
	r := newRig(sys, 2, opt)
	defer r.shutdown()
	if delayUs > 0 {
		if err := r.nw.SetPortFaults(AddrB, fault.MustNew(fault.ReorderPlan(seed, 0.1, delayUs))); err != nil {
			panic(err)
		}
	}
	window := 2 * sim.Second
	total := 64 << 20 // far more than any window can move: the transfer never finishes early
	if opt.Quick {
		window = 800 * sim.Millisecond
		total = 16 << 20
	}
	x := &app.TCPTransfer{
		Server:     r.hosts[1],
		Client:     r.hosts[0],
		ServerAddr: AddrB,
		Port:       5001,
		TotalBytes: total,
	}
	x.Start()
	r.eng.RunFor(window)
	mbps := float64(x.Received) * 8 / float64(window)
	return FaultPoint{Severity: float64(delayUs), TCPMbps: mbps}
}
