package exp

// Per-event cost of the SMP layer at M = 1, 2, 4 CPUs: one RSS-steered
// 6,000 pkts/s flow per core into a per-core sink on a multi-queue
// SOFT-LRP host, the smp experiment's cell minus the probe. The
// ns/event metric divides wall time by sim.Engine.Processed(), so it
// tracks what the cluster layer adds per simulated event (IPI events,
// steal checks, per-queue interrupts) rather than how many events a
// bigger machine generates. BENCH_smp.json records the numbers beside
// the sweep's wall clock.

import (
	"runtime"
	"testing"

	"lrp/internal/app"
	"lrp/internal/core"
	"lrp/internal/netsim"
	"lrp/internal/sim"
)

func benchmarkSMPCell(b *testing.B, cores int) {
	var events, mallocs uint64
	var ms runtime.MemStats
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		nw := netsim.New(eng)
		server := core.NewHost(eng, nw, core.Config{
			Name: "B", Addr: AddrB, Arch: core.ArchSoftLRP, Costs: smpCosts(),
			CPUs: cores, RxQueues: cores,
		})
		for q := 0; q < cores; q++ {
			dport := uint16(100 + q)
			sink := &app.BlastSink{Host: server, Port: dport, CPU: q, PerPktCompute: 10}
			sink.Start()
			src := &app.BlastSource{
				Net: nw, Src: AddrC, Dst: AddrB,
				SPort: steerPort(cores, q, dport), DPort: dport,
				Size: 14, Rate: smpPerCoreRate, Poisson: true,
				Rng: sim.NewRand(uint64(1 + q)),
			}
			src.Start()
		}
		// Steady-state allocation metric: count mallocs across the run
		// phase only, so world construction (fresh engine, host, apps every
		// iteration) does not drown it. Warm-up growth (event free list,
		// overflow heap, mbuf pools) leaves a small constant per run;
		// anything per-event shows up as allocs/event near or above 1.
		runtime.ReadMemStats(&ms)
		pre := ms.Mallocs
		eng.RunFor(300 * sim.Millisecond)
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - pre
		events += eng.Processed()
		server.Shutdown()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	b.ReportMetric(float64(events)/float64(b.N), "events/run")
	b.ReportMetric(float64(mallocs)/float64(events), "allocs/event")
}

func BenchmarkSMPCell1CPU(b *testing.B) { benchmarkSMPCell(b, 1) }
func BenchmarkSMPCell2CPU(b *testing.B) { benchmarkSMPCell(b, 2) }
func BenchmarkSMPCell4CPU(b *testing.B) { benchmarkSMPCell(b, 4) }
