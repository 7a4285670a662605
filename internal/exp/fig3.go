package exp

import (
	"fmt"

	"lrp/internal/core"

	"lrp/internal/app"
	"lrp/internal/results"
	"lrp/internal/runner"
	"lrp/internal/sim"
)

// Fig3Point is one point of Figure 3: "Throughput versus offered load"
// (offered client rate vs rate consumed by the server process).
type Fig3Point = results.Fig3Point

// Fig3Series is one system's curve.
type Fig3Series = results.Fig3Series

// fig3Rates returns the offered-load sweep (14-byte UDP packets).
func fig3Rates(quick bool) []int64 {
	if quick {
		return []int64{2000, 6000, 10000, 14000, 20000}
	}
	var rates []int64
	for r := int64(1000); r <= 20000; r += 1000 {
		rates = append(rates, r)
	}
	return rates
}

// Fig3 reproduces the overload experiment: "a client process sends short
// (14 byte) UDP packets to a server process on another machine at a fixed
// rate. The server process receives the packets and discards them
// immediately."
func Fig3(opt Options) []Fig3Series {
	spec := runner.Spec[System, int64, Fig3Point]{
		Systems: OverloadSystems(),
		Axis:    fig3Rates(opt.Quick),
		Run: func(sys System, rate int64) Fig3Point {
			var d float64
			labeled(sys.Name, func() { d, _ = fig3Run(sys, rate, opt) })
			opt.progress(fmt.Sprintf("fig3: %s offered=%d delivered=%.0f", sys.Name, rate, d))
			return Fig3Point{Offered: rate, Delivered: d}
		},
	}
	grid := runner.Sweep(opt.pool(), spec)
	out := make([]Fig3Series, len(grid))
	for i, pts := range grid {
		out[i] = Fig3Series{System: spec.Systems[i].Name, Points: pts}
	}
	return out
}

// fig3Run measures delivered throughput and whether any packets were
// dropped during the measurement window (for the MLFRR analysis).
func fig3Run(sys System, rate int64, opt Options) (delivered float64, dropsInWindow uint64) {
	r := newRig(sys, 2, opt)
	defer r.shutdown()
	server := r.hosts[1]

	sink := &app.BlastSink{
		Host:           server,
		Port:           7,
		PerPktCompute:  10,
		DisturbPenalty: server.CM.RxDisturbPenalty,
	}
	sink.Start()
	src := &app.BlastSource{
		Net:     r.nw,
		Src:     AddrA,
		Dst:     AddrB,
		SPort:   9000,
		DPort:   7,
		Size:    14,
		Rate:    rate,
		Poisson: true,
		Rng:     sim.NewRand(opt.Seed + uint64(rate) + 1),
	}
	src.Start()

	warm, measure := sim.Second, 3*sim.Second
	if opt.Quick {
		warm, measure = 300*sim.Millisecond, 700*sim.Millisecond
	}
	r.eng.RunFor(warm)
	sink.Received.Reset(r.eng.Now())
	pre := totalDrops(r)
	r.eng.RunFor(measure)
	post := totalDrops(r)
	return sink.Received.Rate(r.eng.Now()), post - pre
}

// totalDrops sums every drop location on the server host.
func totalDrops(r *rig) uint64 { return hostDrops(r.hosts[1]) }

// hostDrops sums every drop location on one host.
func hostDrops(h *core.Host) uint64 {
	st := h.Stats()
	ns := h.NIC.Stats()
	return st.IPQDrops + st.ChannelDrops + st.EarlyDrops + st.SockQDrops +
		st.NoMatchDrops + st.MalformedDrops + st.ProtoDrops + st.DisabledDrops +
		ns.RxRingDrops + ns.NICDrops
}

// MLFRRRow reports the Maximum Loss-Free Receive Rate for one system
// ("the MLFRR of SOFT-LRP exceeded that of 4.4BSD by 44%").
type MLFRRRow = results.MLFRRRow

// MLFRR scans offered rates to find each system's highest loss-free rate
// and its peak delivered throughput. Each system's scan is inherently
// serial (the early-exit depends on the points seen so far), so the
// pool parallelizes across systems only.
func MLFRR(opt Options) []MLFRRRow {
	step := int64(250)
	if opt.Quick {
		step = 1000
	}
	systems := OverloadSystems()
	systems = systems[:4] // MLFRR: the paper's four kernels
	if opt.Quick {
		// The paper's MLFRR comparison is between 4.4BSD and SOFT-LRP.
		systems = []System{systems[0], systems[2]}
	}
	return runner.Map(opt.pool(), systems, func(_ int, sys System) MLFRRRow {
		row := MLFRRRow{System: sys.Name}
		lossFree := int64(0)
		labeled(sys.Name, func() {
			for rate := int64(2000); rate <= 20000; rate += step {
				d, drops := fig3Run(sys, rate, opt)
				if d > row.Peak {
					row.Peak = d
				}
				if drops == 0 {
					lossFree = rate
				} else if rate > lossFree+4*step {
					// Well past the loss-free region; the peak search can
					// stop once throughput declines.
					if d < row.Peak*0.85 {
						break
					}
				}
			}
		})
		row.MLFRR = lossFree
		opt.progress(fmt.Sprintf("mlfrr: %s = %d (peak %.0f)", sys.Name, row.MLFRR, row.Peak))
		return row
	})
}
