package fault

import (
	"fmt"

	"lrp/internal/mbuf"
	"lrp/internal/nic"
	"lrp/internal/sim"
)

// RingFault drops each packet arriving at the adaptor with probability
// Rate over [Start, End), modelling a DMA engine overrunning its
// descriptor ring: the packet is gone before any host buffer is
// allocated and before the host spends a cycle on it.
type RingFault struct {
	Start sim.Time `json:"start_us,omitempty"`
	End   sim.Time `json:"end_us,omitempty"`
	Rate  float64  `json:"rate"`
}

// IntrFault raises a spurious host interrupt (no packet behind it) every
// PeriodUs over [Start, End), modelling a glitching interrupt line. The
// host pays the full interrupt entry/exit cost to discover an empty
// ring.
type IntrFault struct {
	Start    sim.Time `json:"start_us,omitempty"`
	End      sim.Time `json:"end_us,omitempty"`
	PeriodUs int64    `json:"period_us"`
}

// PressureFault withholds Amount buffers from the host mbuf pool over
// [Start, End), modelling transient external demand (another interface's
// burst) exhausting the shared pool.
type PressureFault struct {
	Start  sim.Time `json:"start_us,omitempty"`
	End    sim.Time `json:"end_us,omitempty"`
	Amount int      `json:"amount"`
}

// NICPlan scripts host-side faults for one adaptor, as Plan does for one
// link. End == 0 on any entry means "until the end of the run".
// PoolPressure windows must not overlap one another.
type NICPlan struct {
	Seed          uint64          `json:"seed"`
	RingOverrun   []RingFault     `json:"ring_overrun,omitempty"`
	SpuriousIntrs []IntrFault     `json:"spurious_intrs,omitempty"`
	PoolPressure  []PressureFault `json:"pool_pressure,omitempty"`
}

// Validate checks windows and parameters.
func (p *NICPlan) Validate() error {
	window := func(what string, i int, start, end sim.Time) error {
		if start < 0 || end < 0 || (end != 0 && end <= start) {
			return fmt.Errorf("fault: %s %d: window [%d, %d) is empty or negative", what, i, start, end)
		}
		return nil
	}
	for i, f := range p.RingOverrun {
		if err := window("ring_overrun", i, f.Start, f.End); err != nil {
			return err
		}
		if err := probability("ring_overrun", "rate", f.Rate); err != nil {
			return err
		}
	}
	for i, f := range p.SpuriousIntrs {
		if err := window("spurious_intrs", i, f.Start, f.End); err != nil {
			return err
		}
		if f.PeriodUs <= 0 {
			return fmt.Errorf("fault: spurious_intrs %d: period_us must be positive", i)
		}
	}
	for i, f := range p.PoolPressure {
		if err := window("pool_pressure", i, f.Start, f.End); err != nil {
			return err
		}
		if f.Amount <= 0 {
			return fmt.Errorf("fault: pool_pressure %d: amount must be positive", i)
		}
	}
	return nil
}

// HostFaults is a compiled NICPlan installed against a live adaptor.
type HostFaults struct {
	// SpuriousRaised counts spurious interrupts delivered so far; ring
	// overrun drops appear in the NIC's own Stats.FaultDrops, and pool
	// pressure effects in the pool's failure counter.
	SpuriousRaised uint64

	eng  *sim.Engine
	n    *nic.NIC
	ring []ringStage
}

type ringStage struct {
	f   RingFault
	rng *sim.Rand
}

// InstallNIC compiles plan and arms it against n: the ring-overrun hook
// is installed now, and spurious-interrupt and pool-pressure events are
// scheduled on eng. pool may be nil when the plan has no pressure
// windows. Call before the run starts (windows beginning before "now"
// are clamped to start immediately).
func InstallNIC(eng *sim.Engine, n *nic.NIC, pool *mbuf.Pool, plan NICPlan) (*HostFaults, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if len(plan.PoolPressure) > 0 && pool == nil {
		return nil, fmt.Errorf("fault: plan has pool_pressure windows but no pool")
	}
	h := &HostFaults{eng: eng, n: n}
	base := sim.NewRand(plan.Seed)
	for i, f := range plan.RingOverrun {
		h.ring = append(h.ring, ringStage{f: f, rng: base.Fork(uint64(i))})
	}
	if len(h.ring) > 0 {
		n.RxFault = h.rxFault
	}
	at := func(t sim.Time, fn func()) {
		if t < eng.Now() {
			t = eng.Now()
		}
		eng.At(t, fn)
	}
	for i := range plan.SpuriousIntrs {
		f := plan.SpuriousIntrs[i]
		var fire func()
		fire = func() {
			if f.End != 0 && eng.Now() >= f.End {
				return
			}
			h.SpuriousRaised++
			n.RaiseIntr()
			eng.After(f.PeriodUs, fire)
		}
		at(f.Start, fire)
	}
	for i := range plan.PoolPressure {
		f := plan.PoolPressure[i]
		at(f.Start, func() { pool.SetPressure(f.Amount) })
		if f.End != 0 {
			at(f.End, func() { pool.SetPressure(0) })
		}
	}
	return h, nil
}

// rxFault is the NIC receive hook: true means drop this packet at the
// adaptor. Every active window consumes exactly one draw per packet so
// each window's stream tracks the arrival sequence alone.
//
//lrp:hotpath
func (h *HostFaults) rxFault() bool {
	drop := false
	now := h.eng.Now()
	for i := range h.ring {
		st := &h.ring[i]
		if now < st.f.Start || (st.f.End != 0 && now >= st.f.End) {
			continue
		}
		if st.f.Rate > 0 && st.rng.Float64() < st.f.Rate {
			drop = true
		}
	}
	return drop
}
