package fault

import "lrp/internal/sim"

// Verdict is the pipeline's decision for one packet delivery. It is a
// plain value so the per-packet hot path allocates nothing.
type Verdict struct {
	// Drop: do not deliver the packet at all.
	Drop bool
	// ExtraDelayUs is added to the arrival time after normal link
	// serialization, so a delayed packet can genuinely be overtaken by
	// later ones (reordering, jitter).
	ExtraDelayUs int64
	// Duplicate: deliver a second copy, DupDelayUs after the original.
	Duplicate  bool
	DupDelayUs int64
	// Corrupt: flip a payload byte before delivery so the transport
	// checksum fails at the receiver.
	Corrupt bool
}

// Merge folds o into v, composing verdicts from stacked pipelines (the
// network-wide pipeline plus a per-port one): drops and corruption are
// sticky, delays add, and the later duplicate wins the copy gap.
//
//lrp:hotpath
func (v *Verdict) Merge(o Verdict) {
	v.Drop = v.Drop || o.Drop
	v.ExtraDelayUs += o.ExtraDelayUs
	if o.Duplicate {
		v.Duplicate = true
		v.DupDelayUs = o.DupDelayUs
	}
	v.Corrupt = v.Corrupt || o.Corrupt
}

// Stats counts what the pipeline did, by effect.
type Stats struct {
	Applied    uint64 // packets examined
	Dropped    uint64 // Bernoulli-loss drops
	BurstDrops uint64 // Gilbert–Elliott drops
	FlapDrops  uint64 // drops during link-down windows
	Reordered  uint64 // packets held back by a reorder stage
	Duplicated uint64 // packets scheduled for double delivery
	Corrupted  uint64 // packets marked for payload corruption
	Jittered   uint64 // packets given nonzero jitter delay
}

// stage is one compiled segment: its parameters plus a private rng
// stream and the Gilbert–Elliott chain position.
type stage struct {
	seg Segment
	rng *sim.Rand
	bad bool // Gilbert–Elliott: currently in the bad state
}

// Pipeline is a compiled Plan: an ordered list of live impairment
// stages. One pipeline serves one link direction (netsim installs them
// per destination port, or network-wide); it must not be shared across
// goroutines — like the rest of the simulation it is single-threaded by
// construction.
type Pipeline struct {
	stages []stage
	stats  Stats
}

// New compiles a plan into a live pipeline. Each segment gets an
// independent rng stream forked from the plan seed and the segment
// index, so editing one segment's parameters never perturbs the draws
// any other segment sees.
func New(plan Plan) (*Pipeline, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	base := sim.NewRand(plan.Seed)
	p := &Pipeline{stages: make([]stage, len(plan.Segments))}
	for i := range plan.Segments {
		p.stages[i] = stage{seg: plan.Segments[i], rng: base.Fork(uint64(i))}
	}
	return p, nil
}

// MustNew is New for static plans known to be valid (tests, builders).
func MustNew(plan Plan) *Pipeline {
	p, err := New(plan)
	if err != nil {
		panic(err)
	}
	return p
}

// Stats returns a copy of the pipeline's counters.
func (p *Pipeline) Stats() Stats { return p.stats }

// Apply runs every active stage against one packet delivery at time now
// and returns the combined verdict. Every active stage consumes its
// draws regardless of what earlier stages decided, so each stage's
// stream is a pure function of the arrival sequence — dropping a packet
// in one stage never shifts another stage's randomness.
//
//lrp:hotpath
func (p *Pipeline) Apply(now sim.Time) Verdict {
	var v Verdict
	p.stats.Applied++
	for i := range p.stages {
		st := &p.stages[i]
		if !st.seg.active(now) {
			continue
		}
		switch st.seg.Kind {
		case KindLoss:
			if st.seg.Rate > 0 && st.rng.Float64() < st.seg.Rate {
				v.Drop = true
				p.stats.Dropped++
			}
		case KindGilbertElliott:
			// Two draws per packet, always: a state-transition draw and
			// a loss draw. Constant draw count keeps the stream aligned
			// with the packet sequence whatever the chain does.
			t := st.rng.Float64()
			if st.bad {
				if t < st.seg.PBadGood {
					st.bad = false
				}
			} else if t < st.seg.PGoodBad {
				st.bad = true
			}
			loss := st.seg.GoodLoss
			if st.bad {
				loss = st.seg.BadLoss
			}
			if d := st.rng.Float64(); loss > 0 && d < loss {
				v.Drop = true
				p.stats.BurstDrops++
			}
		case KindReorder:
			if st.seg.Rate > 0 && st.rng.Float64() < st.seg.Rate {
				v.ExtraDelayUs += st.seg.DelayUs
				p.stats.Reordered++
			}
		case KindDuplicate:
			if st.seg.Rate > 0 && st.rng.Float64() < st.seg.Rate {
				v.Duplicate = true
				v.DupDelayUs = st.seg.DelayUs
				p.stats.Duplicated++
			}
		case KindCorrupt:
			if st.seg.Rate > 0 && st.rng.Float64() < st.seg.Rate {
				v.Corrupt = true
				p.stats.Corrupted++
			}
		case KindJitter:
			// Uniform integer delay in [0, JitterUs]; one draw per packet.
			if d := st.rng.Int63n(st.seg.JitterUs + 1); d > 0 {
				v.ExtraDelayUs += d
				p.stats.Jittered++
			}
		case KindFlap:
			// Pure clock arithmetic, no draws: position within the
			// down/up cycle decides the link state.
			phase := int64(now-st.seg.Start) % (st.seg.DownUs + st.seg.UpUs)
			if phase < st.seg.DownUs {
				v.Drop = true
				p.stats.FlapDrops++
			}
		}
	}
	return v
}
