package exp

import (
	"fmt"

	"lrp/internal/app"
	"lrp/internal/results"
	"lrp/internal/runner"
	"lrp/internal/sim"
)

// Fig4Point is one point of Figure 4: "Latency with concurrent load"
// (ping-pong RTT and lost probes vs background blast rate).
type Fig4Point = results.Fig4Point

// Fig4Series is one system's curve.
type Fig4Series = results.Fig4Series

func fig4Rates(quick bool) []int64 {
	if quick {
		return []int64{0, 4000, 8000, 14000}
	}
	return []int64{0, 1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000,
		10000, 12000, 14000, 16000, 18000, 20000}
}

// Fig4 reproduces the concurrent-load latency experiment: "The client,
// running on machine A, ping-pongs a short UDP message with a server
// process (ping-pong server) running on machine B. At the same time,
// machine C transmits UDP packets at a fixed rate to a separate server
// process (blast server) on machine B." Low-priority spinners keep the
// CPUs out of the idle loop, per the paper's methodology.
func Fig4(opt Options) []Fig4Series {
	spec := runner.Spec[System, int64, Fig4Point]{
		Systems: LatencySystems(),
		Axis:    fig4Rates(opt.Quick),
		Run: func(sys System, rate int64) Fig4Point {
			var rtt float64
			var lost int
			labeled(sys.Name, func() { rtt, lost = fig4Run(sys, rate, opt) })
			opt.progress(fmt.Sprintf("fig4: %s bg=%d rtt=%.0f lost=%d", sys.Name, rate, rtt, lost))
			return Fig4Point{BgRate: rate, RTTMicros: rtt, Lost: lost}
		},
	}
	grid := runner.Sweep(opt.pool(), spec)
	out := make([]Fig4Series, len(grid))
	for i, pts := range grid {
		out[i] = Fig4Series{System: spec.Systems[i].Name, Points: pts}
	}
	return out
}

func fig4Run(sys System, bgRate int64, opt Options) (float64, int) {
	r := newRig(sys, 3, opt)
	defer r.shutdown()
	hostA, hostB := r.hosts[0], r.hosts[1]

	// Background spinners on the ping-pong machines (nice +20).
	app.Spinner(hostA, "spin-A")
	app.Spinner(hostB, "spin-B")

	// Blast server on B, fed from machine C.
	sink := &app.BlastSink{
		Host:           hostB,
		Port:           9,
		PerPktCompute:  10,
		DisturbPenalty: hostB.CM.RxDisturbPenalty,
	}
	sink.Start()
	if bgRate > 0 {
		src := &app.BlastSource{
			Net:     r.nw,
			Src:     AddrC,
			Dst:     AddrB,
			SPort:   9000,
			DPort:   9,
			Size:    14,
			Rate:    bgRate,
			Poisson: true,
			Rng:     sim.NewRand(opt.Seed + uint64(bgRate) + 3),
		}
		src.Start()
	}

	// Ping-pong pair.
	srv := &app.PingPongServer{Host: hostB, Port: 7}
	srv.Start()
	iters, warmup := 1500, 400
	if opt.Quick {
		iters = 250
	}
	cli := &app.PingPongClient{
		Host:         hostA,
		ServerAddr:   AddrB,
		ServerPort:   7,
		MsgSize:      14,
		Iterations:   iters,
		Warmup:       warmup,
		ReplyTimeout: 100 * sim.Millisecond,
	}
	cli.Start()

	// Let the background load reach steady state, then measure.
	limit := sim.Time(iters+warmup)*5*sim.Millisecond + 5*sim.Second
	r.eng.RunFor(limit)
	return cli.RTT.Mean(), cli.Lost
}
