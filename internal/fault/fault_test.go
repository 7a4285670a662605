package fault

import (
	"encoding/json"
	"reflect"
	"testing"

	"lrp/internal/mbuf"
	"lrp/internal/nic"
	"lrp/internal/sim"
)

// applyN runs n packets through p at 1µs spacing starting at t0 and
// returns the verdicts.
func applyN(p *Pipeline, t0 sim.Time, n int) []Verdict {
	vs := make([]Verdict, n)
	for i := range vs {
		vs[i] = p.Apply(t0 + sim.Time(i))
	}
	return vs
}

func countDrops(vs []Verdict) int {
	n := 0
	for _, v := range vs {
		if v.Drop {
			n++
		}
	}
	return n
}

func TestBernoulliLossRate(t *testing.T) {
	p := MustNew(LossPlan(1, 0.3))
	const N = 20000
	drops := countDrops(applyN(p, 0, N))
	if frac := float64(drops) / N; frac < 0.27 || frac > 0.33 {
		t.Fatalf("loss fraction %.3f, want ~0.30", frac)
	}
	if s := p.Stats(); s.Dropped != uint64(drops) || s.Applied != N {
		t.Fatalf("stats %+v disagree with %d observed drops", s, drops)
	}
}

func TestLossZeroAndOne(t *testing.T) {
	if countDrops(applyN(MustNew(LossPlan(1, 0)), 0, 1000)) != 0 {
		t.Fatal("rate 0 dropped packets")
	}
	if countDrops(applyN(MustNew(LossPlan(1, 1)), 0, 1000)) != 1000 {
		t.Fatal("rate 1 passed packets")
	}
}

// meanBurstLen returns the average length of runs of consecutive drops.
func meanBurstLen(vs []Verdict) float64 {
	bursts, total, run := 0, 0, 0
	for _, v := range vs {
		if v.Drop {
			run++
			continue
		}
		if run > 0 {
			bursts++
			total += run
			run = 0
		}
	}
	if run > 0 {
		bursts++
		total += run
	}
	if bursts == 0 {
		return 0
	}
	return float64(total) / float64(bursts)
}

func TestGilbertElliottLossAndBurstiness(t *testing.T) {
	const N = 50000
	const target = 0.2
	ge := applyN(MustNew(GilbertElliottPlan(7, target, 10)), 0, N)
	if frac := float64(countDrops(ge)) / N; frac < 0.15 || frac > 0.25 {
		t.Fatalf("GE long-run loss %.3f, want ~%.2f", frac, target)
	}
	// The defining property: at equal average loss, GE drops cluster.
	// Bernoulli mean run length at rate L is 1/(1-L) ≈ 1.25; GE with mean
	// dwell 10 should be several times that.
	bern := applyN(MustNew(LossPlan(7, target)), 0, N)
	geBurst, bernBurst := meanBurstLen(ge), meanBurstLen(bern)
	if geBurst < 2*bernBurst {
		t.Fatalf("GE mean burst %.2f not clearly burstier than Bernoulli %.2f", geBurst, bernBurst)
	}
}

func TestReorderSelection(t *testing.T) {
	p := MustNew(ReorderPlan(3, 0.25, 500))
	const N = 20000
	vs := applyN(p, 0, N)
	held := 0
	for _, v := range vs {
		if v.Drop || v.Duplicate || v.Corrupt {
			t.Fatalf("reorder produced a foreign effect: %+v", v)
		}
		if v.ExtraDelayUs != 0 {
			if v.ExtraDelayUs != 500 {
				t.Fatalf("held packet delayed %dµs, want 500", v.ExtraDelayUs)
			}
			held++
		}
	}
	if frac := float64(held) / N; frac < 0.22 || frac > 0.28 {
		t.Fatalf("reorder fraction %.3f, want ~0.25", frac)
	}
	if p.Stats().Reordered != uint64(held) {
		t.Fatalf("stats %+v disagree with %d held", p.Stats(), held)
	}
}

func TestDuplicateSelection(t *testing.T) {
	p := MustNew(DuplicatePlan(4, 0.1, 40))
	const N = 20000
	dups := 0
	for _, v := range applyN(p, 0, N) {
		if v.Duplicate {
			if v.DupDelayUs != 40 {
				t.Fatalf("copy gap %dµs, want 40", v.DupDelayUs)
			}
			dups++
		}
	}
	if frac := float64(dups) / N; frac < 0.08 || frac > 0.12 {
		t.Fatalf("duplicate fraction %.3f, want ~0.10", frac)
	}
}

func TestCorruptSelection(t *testing.T) {
	p := MustNew(CorruptPlan(5, 0.15))
	const N = 20000
	bad := 0
	for _, v := range applyN(p, 0, N) {
		if v.Corrupt {
			bad++
		}
	}
	if frac := float64(bad) / N; frac < 0.12 || frac > 0.18 {
		t.Fatalf("corrupt fraction %.3f, want ~0.15", frac)
	}
}

func TestJitterDistribution(t *testing.T) {
	const bound = 200
	p := MustNew(JitterPlan(6, bound))
	const N = 20000
	var sum int64
	for _, v := range applyN(p, 0, N) {
		if v.ExtraDelayUs < 0 || v.ExtraDelayUs > bound {
			t.Fatalf("jitter %dµs outside [0, %d]", v.ExtraDelayUs, bound)
		}
		sum += v.ExtraDelayUs
	}
	if mean := float64(sum) / N; mean < 0.9*bound/2 || mean > 1.1*bound/2 {
		t.Fatalf("jitter mean %.1fµs, want ~%d", mean, bound/2)
	}
}

func TestFlapTimeline(t *testing.T) {
	// 100µs down / 300µs up starting at t=1000: the outage windows are
	// exact clock arithmetic, no randomness.
	p := MustNew(Plan{Seed: 1, Segments: []Segment{{
		Kind: KindFlap, Start: 1000, DownUs: 100, UpUs: 300,
	}}})
	for _, tc := range []struct {
		at   sim.Time
		drop bool
	}{
		{0, false},    // before the segment starts
		{999, false},  // still before
		{1000, true},  // first down window opens
		{1099, true},  // last µs of the outage
		{1100, false}, // link back up
		{1399, false}, // end of the up window
		{1400, true},  // second cycle's outage
		{1500, false},
	} {
		if got := p.Apply(tc.at).Drop; got != tc.drop {
			t.Fatalf("flap at %dµs: drop=%v, want %v", tc.at, got, tc.drop)
		}
	}
	if p.Stats().FlapDrops != 3 {
		t.Fatalf("FlapDrops = %d, want 3", p.Stats().FlapDrops)
	}
}

func TestSegmentWindowActivation(t *testing.T) {
	// Total loss, but only over [100, 200).
	p := MustNew(Plan{Seed: 1, Segments: []Segment{{
		Kind: KindLoss, Rate: 1, Start: 100, End: 200,
	}}})
	for _, tc := range []struct {
		at   sim.Time
		drop bool
	}{{99, false}, {100, true}, {199, true}, {200, false}} {
		if got := p.Apply(tc.at).Drop; got != tc.drop {
			t.Fatalf("at %dµs: drop=%v, want %v", tc.at, got, tc.drop)
		}
	}
}

func TestPipelineDeterministic(t *testing.T) {
	plan := Plan{Seed: 99, Segments: []Segment{
		{Kind: KindGilbertElliott, PGoodBad: 0.02, PBadGood: 0.1, BadLoss: 1},
		{Kind: KindReorder, Rate: 0.1, DelayUs: 300},
		{Kind: KindJitter, JitterUs: 50},
		{Kind: KindDuplicate, Rate: 0.05, DelayUs: 20},
		{Kind: KindCorrupt, Rate: 0.05},
	}}
	a := applyN(MustNew(plan), 0, 5000)
	b := applyN(MustNew(plan), 0, 5000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical plans produced different verdict sequences")
	}
}

func TestSegmentStreamsIndependent(t *testing.T) {
	// Appending a jitter segment must not change the loss segment's
	// decisions: each segment draws from its own forked stream.
	lossOnly := applyN(MustNew(Plan{Seed: 5, Segments: []Segment{
		{Kind: KindLoss, Rate: 0.3},
	}}), 0, 2000)
	withJitter := applyN(MustNew(Plan{Seed: 5, Segments: []Segment{
		{Kind: KindLoss, Rate: 0.3},
		{Kind: KindJitter, JitterUs: 100},
	}}), 0, 2000)
	for i := range lossOnly {
		if lossOnly[i].Drop != withJitter[i].Drop {
			t.Fatalf("loss decision %d changed when a jitter segment was added", i)
		}
	}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	plan := Plan{Seed: 42, Segments: []Segment{
		{Kind: KindGilbertElliott, PGoodBad: 0.01, PBadGood: 0.2, BadLoss: 1, Start: 10, End: 5000},
		{Kind: KindFlap, DownUs: 100, UpUs: 900},
	}}
	data, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParsePlan(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plan, back) {
		t.Fatalf("round trip changed the plan:\n  in  %+v\n  out %+v", plan, back)
	}
	// The empty plan still encodes segments as a list.
	data, err = json.Marshal(Plan{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"seed":1,"segments":[]}` {
		t.Fatalf("empty plan encoding %s", data)
	}
}

func TestPlanValidation(t *testing.T) {
	for name, plan := range map[string]Plan{
		"unknown kind":   {Segments: []Segment{{Kind: "gremlins"}}},
		"rate above one": {Segments: []Segment{{Kind: KindLoss, Rate: 1.5}}},
		"negative rate":  {Segments: []Segment{{Kind: KindCorrupt, Rate: -0.1}}},
		"empty window":   {Segments: []Segment{{Kind: KindLoss, Start: 50, End: 50}}},
		"no delay":       {Segments: []Segment{{Kind: KindReorder, Rate: 0.1}}},
		"no jitter":      {Segments: []Segment{{Kind: KindJitter}}},
		"no flap period": {Segments: []Segment{{Kind: KindFlap, DownUs: 10}}},
		"bad ge prob":    {Segments: []Segment{{Kind: KindGilbertElliott, PGoodBad: 2}}},
	} {
		if err := plan.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, plan)
		}
		if _, err := New(plan); err == nil {
			t.Errorf("%s: New accepted %+v", name, plan)
		}
	}
	good := GilbertElliottPlan(1, 0.1, 8)
	if err := good.Validate(); err != nil {
		t.Fatalf("builder plan rejected: %v", err)
	}
}

// --- host-side faults -------------------------------------------------------

func TestRingOverrunDropRate(t *testing.T) {
	eng := sim.NewEngine()
	n := nic.New(eng, nic.Config{Name: "eth0"})
	_, err := InstallNIC(eng, n, nil, NICPlan{
		Seed:        11,
		RingOverrun: []RingFault{{Rate: 0.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	pktb := make([]byte, 64)
	const N = 10000
	for i := 0; i < N; i++ {
		n.Rx(pktb)
		if m := n.RxDequeue(); m != nil {
			m.Free()
		}
		n.IntrDone()
	}
	s := n.Stats()
	if s.RxPackets != N {
		t.Fatalf("RxPackets = %d, want %d", s.RxPackets, N)
	}
	if frac := float64(s.FaultDrops) / N; frac < 0.46 || frac > 0.54 {
		t.Fatalf("ring-overrun drop fraction %.3f, want ~0.50", frac)
	}
}

func TestRingOverrunWindow(t *testing.T) {
	eng := sim.NewEngine()
	n := nic.New(eng, nic.Config{Name: "eth0"})
	if _, err := InstallNIC(eng, n, nil, NICPlan{
		RingOverrun: []RingFault{{Rate: 1, Start: 100, End: 200}},
	}); err != nil {
		t.Fatal(err)
	}
	pktb := make([]byte, 64)
	drain := func() bool {
		m := n.RxDequeue()
		if m != nil {
			m.Free()
		}
		n.IntrDone()
		return m != nil
	}
	n.Rx(pktb) // t=0: before the window
	if !drain() {
		t.Fatal("packet before the fault window was dropped")
	}
	eng.At(150, func() { n.Rx(pktb) })
	eng.RunUntil(150)
	if drain() {
		t.Fatal("packet inside the fault window survived")
	}
	eng.At(250, func() { n.Rx(pktb) })
	eng.RunUntil(250)
	if !drain() {
		t.Fatal("packet after the fault window was dropped")
	}
}

func TestSpuriousInterrupts(t *testing.T) {
	eng := sim.NewEngine()
	n := nic.New(eng, nic.Config{Name: "eth0"})
	h, err := InstallNIC(eng, n, nil, NICPlan{
		SpuriousIntrs: []IntrFault{{Start: 0, End: 1000, PeriodUs: 100}},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(5000)
	// Fires at 0, 100, ..., 900 — the t=1000 firing sees End and stops.
	if h.SpuriousRaised != 10 {
		t.Fatalf("SpuriousRaised = %d, want 10", h.SpuriousRaised)
	}
	if s := n.Stats(); s.HostIntrs != 10 {
		t.Fatalf("HostIntrs = %d, want 10", s.HostIntrs)
	}
}

func TestPoolPressureWindow(t *testing.T) {
	eng := sim.NewEngine()
	pool := mbuf.NewPool(10)
	n := nic.New(eng, nic.Config{Name: "eth0", Pool: pool})
	if _, err := InstallNIC(eng, n, pool, NICPlan{
		PoolPressure: []PressureFault{{Start: 100, End: 200, Amount: 8}},
	}); err != nil {
		t.Fatal(err)
	}
	fill := func() int {
		var ms []*mbuf.Mbuf
		for {
			m := pool.Alloc(nil)
			if m == nil {
				break
			}
			ms = append(ms, m)
		}
		for _, m := range ms {
			m.Free()
		}
		return len(ms)
	}
	got := make(map[sim.Time]int)
	for _, at := range []sim.Time{50, 150, 250} {
		at := at
		eng.At(at, func() { got[at] = fill() })
	}
	eng.Run()
	if got[50] != 10 || got[150] != 2 || got[250] != 10 {
		t.Fatalf("effective pool capacity before/during/after pressure = %d/%d/%d, want 10/2/10", got[50], got[150], got[250])
	}
}

func TestNICPlanValidation(t *testing.T) {
	eng := sim.NewEngine()
	n := nic.New(eng, nic.Config{Name: "eth0"})
	for name, plan := range map[string]NICPlan{
		"bad ring rate":    {RingOverrun: []RingFault{{Rate: 2}}},
		"bad ring window":  {RingOverrun: []RingFault{{Rate: 0.5, Start: 10, End: 5}}},
		"no intr period":   {SpuriousIntrs: []IntrFault{{}}},
		"no pressure amt":  {PoolPressure: []PressureFault{{}}},
		"pressure no pool": {PoolPressure: []PressureFault{{Amount: 5}}},
	} {
		if _, err := InstallNIC(eng, n, nil, plan); err == nil {
			t.Errorf("%s: InstallNIC accepted %+v", name, plan)
		}
	}
}
