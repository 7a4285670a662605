package pop

import (
	"fmt"
	"math"
	"testing"

	"lrp/internal/core"
	"lrp/internal/netsim"
	"lrp/internal/pkt"
	"lrp/internal/sim"
	"lrp/internal/topo"
)

// sendEvent is one generated packet, as observed by the OnSend hook.
type sendEvent struct {
	at    int64
	src   pkt.Addr
	sport uint16
	size  int
}

// runTrace builds a 3-link chain with a population on the edge and
// returns the packet trace after d of sim time.
func runTrace(cfg Config, d int64) []sendEvent {
	eng := sim.NewEngine()
	nw := netsim.New(eng)
	spec := topo.Spec{
		Eng: eng,
		Net: nw,
		Make: func(name string, addr pkt.Addr) *core.Host {
			return core.NewHost(eng, nw, core.Config{Name: name, Addr: addr, Arch: core.ArchSoftLRP})
		},
	}
	t := topo.Chain(spec, 2)
	defer t.Shutdown()
	g := &Population{
		Host:  t.Edges[0],
		Net:   nw,
		Src:   t.Edges[0].Addr,
		Dst:   t.Server.Addr,
		DPort: 7,
		Cfg:   cfg,
	}
	var trace []sendEvent
	g.OnSend = func(src pkt.Addr, sport uint16, size int) {
		trace = append(trace, sendEvent{int64(eng.Now()), src, sport, size})
	}
	g.Start()
	eng.RunFor(d)
	return trace
}

func TestSameSeedSamePacketTrace(t *testing.T) {
	cfg := Config{
		Clients:     50_000,
		RatePps:     4000,
		FlashFactor: 4,
		CalmMeanUs:  200 * sim.Millisecond,
		FlashMeanUs: 50 * sim.Millisecond,
		ChurnPerSec: 20,
		Seed:        42,
	}
	a := runTrace(cfg, 2*sim.Second)
	b := runTrace(cfg, 2*sim.Second)
	if len(a) == 0 {
		t.Fatal("population generated nothing")
	}
	if fmt.Sprintf("%v", a) != fmt.Sprintf("%v", b) {
		t.Fatalf("same seed produced different traces (%d vs %d events)", len(a), len(b))
	}
	// A different seed must not replay the same trace.
	cfg.Seed = 43
	c := runTrace(cfg, 2*sim.Second)
	if fmt.Sprintf("%v", a) == fmt.Sprintf("%v", c) {
		t.Fatal("different seeds produced identical traces")
	}
}

// boundedParetoMean is the analytic mean of the bounded Pareto on
// [l, h] with tail index a (a != 1).
func boundedParetoMean(l, h, a float64) float64 {
	num := math.Pow(l, a) / (1 - math.Pow(l/h, a)) * a / (a - 1)
	return num * (1/math.Pow(l, a-1) - 1/math.Pow(h, a-1))
}

func TestArrivalAndSizeDistributions(t *testing.T) {
	// Long pure-Poisson run: empirical rate and size moments must match
	// the configured model within tolerance.
	cfg := Config{
		Clients:   100_000,
		RatePps:   5000,
		SizeMin:   14,
		SizeMax:   8000,
		SizeAlpha: 1.3,
		Seed:      1,
	}
	const dur = 20 * sim.Second
	trace := runTrace(cfg, dur)
	n := len(trace)
	want := cfg.RatePps * float64(dur) / 1e6
	if math.Abs(float64(n)-want) > 0.05*want {
		t.Fatalf("generated %d packets in %ds, want %.0f ± 5%%", n, dur/sim.Second, want)
	}

	// Inter-arrival gaps: an exponential's mean and standard deviation
	// are equal; both must land near 1/rate.
	meanGap := float64(trace[n-1].at-trace[0].at) / float64(n-1)
	wantGap := 1e6 / cfg.RatePps
	if math.Abs(meanGap-wantGap) > 0.05*wantGap {
		t.Fatalf("mean gap %.1fµs, want %.1f ± 5%%", meanGap, wantGap)
	}
	var ss float64
	for i := 1; i < n; i++ {
		d := float64(trace[i].at-trace[i-1].at) - meanGap
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(n-2))
	if math.Abs(sd-wantGap) > 0.10*wantGap {
		t.Fatalf("gap stddev %.1fµs, want %.1f ± 10%% (Poisson gaps are exponential)", sd, wantGap)
	}

	// Sizes: empirical mean vs the analytic bounded-Pareto mean, and the
	// bounds must hold with the tail actually exercised.
	var sum float64
	maxSeen := 0
	for _, e := range trace {
		if e.size < cfg.SizeMin || e.size > cfg.SizeMax {
			t.Fatalf("size %d outside [%d, %d]", e.size, cfg.SizeMin, cfg.SizeMax)
		}
		if e.size > maxSeen {
			maxSeen = e.size
		}
		sum += float64(e.size)
	}
	meanSize := sum / float64(n)
	wantSize := boundedParetoMean(float64(cfg.SizeMin), float64(cfg.SizeMax), cfg.SizeAlpha)
	if math.Abs(meanSize-wantSize) > 0.05*wantSize {
		t.Fatalf("mean size %.1fB, want %.1f ± 5%%", meanSize, wantSize)
	}
	if maxSeen < cfg.SizeMax/2 {
		t.Fatalf("heavy tail unexercised: max size %d over %d samples", maxSeen, n)
	}
}

func TestFlashCrowdRaisesRate(t *testing.T) {
	base := Config{Clients: 10_000, RatePps: 2000, Seed: 5}
	calm := len(runTrace(base, 5*sim.Second))
	flashy := base
	flashy.FlashFactor = 8
	flashy.CalmMeanUs = 100 * sim.Millisecond
	flashy.FlashMeanUs = 100 * sim.Millisecond
	hot := len(runTrace(flashy, 5*sim.Second))
	// Expected long-run rate with equal sojourns: (1+8)/2 = 4.5x calm.
	if hot < calm*2 {
		t.Fatalf("flash-crowd modulation raised %d calm packets only to %d", calm, hot)
	}
}

func TestClientIdentitiesSpanPopulation(t *testing.T) {
	cfg := Config{Clients: 200_000, RatePps: 10_000, ClientBase: 100_000, Seed: 3}
	trace := runTrace(cfg, 2*sim.Second)
	distinct := make(map[pkt.Addr]bool)
	for _, e := range trace {
		distinct[e.src] = true
	}
	// ~20k draws from 200k clients: birthday math says the overwhelming
	// majority are distinct.
	if len(distinct) < len(trace)*9/10 {
		t.Fatalf("%d sends map to only %d distinct client addresses", len(trace), len(distinct))
	}
}
