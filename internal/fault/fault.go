// Package fault is the deterministic fault-injection subsystem: a
// scripted, seeded model of network and host impairments for probing how
// each receive architecture degrades under hostile or degraded input.
//
// The paper's central claim is stability under adversarial load; the
// related work (Wu et al. on packet reordering, COREC on driver-level
// robustness) shows that loss is only one of the ways real traffic
// misbehaves. This package scripts the rest: bursty (Gilbert–Elliott)
// loss, delay-based reordering, duplication, payload corruption, delay
// jitter, and scheduled link flaps, plus host-side faults at the NIC and
// mbuf layer (DMA-ring overruns, spurious interrupts, transient buffer
// pressure).
//
// Everything is declared up front in a serializable Plan — a timeline of
// impairment segments — and driven by sim.Rand streams forked from the
// plan seed, so a run is a pure function of (plan, workload): the same
// plan replays the same drops, delays and corruptions event for event.
// The netsim layer consults a compiled Pipeline per delivered packet;
// host faults install against a NIC via Attach.
package fault

import (
	"encoding/json"
	"fmt"

	"lrp/internal/sim"
)

// Impairment kinds. Each names one packet-level fault process; a Plan
// composes any number of them, each active over its own time window.
const (
	// KindLoss drops each packet independently with probability Rate
	// (Bernoulli loss).
	KindLoss = "loss"
	// KindGilbertElliott drops packets from a two-state Markov chain:
	// a good state losing GoodLoss of packets and a bad state losing
	// BadLoss, with per-packet transition probabilities PGoodBad and
	// PBadGood. This produces the bursty loss of fading links and
	// overflowing upstream queues.
	KindGilbertElliott = "ge-loss"
	// KindReorder holds each selected packet (probability Rate) back by
	// DelayUs beyond its normal arrival, letting later packets overtake
	// it — delay-based reordering, the mechanism Wu et al. study.
	KindReorder = "reorder"
	// KindDuplicate delivers each selected packet (probability Rate)
	// twice, the copy arriving DelayUs after the original.
	KindDuplicate = "duplicate"
	// KindCorrupt flips a payload byte of each selected packet
	// (probability Rate) so transport checksums fail after protocol
	// processing has been paid — the paper's "corrupted data packets"
	// overload source, generalized into a rate-controlled process.
	KindCorrupt = "corrupt"
	// KindJitter adds an independent uniform delay in [0, JitterUs] to
	// every packet.
	KindJitter = "jitter"
	// KindFlap takes the link down for DownUs then up for UpUs,
	// repeating; packets arriving during a down window are dropped.
	KindFlap = "flap"
)

// Kinds lists every pipeline impairment kind, in canonical order.
var Kinds = []string{
	KindLoss, KindGilbertElliott, KindReorder, KindDuplicate,
	KindCorrupt, KindJitter, KindFlap,
}

// Segment is one impairment active over [Start, End) of simulated time.
// End == 0 means "until the end of the run". Parameter fields not used
// by the segment's Kind are ignored (and should be zero).
type Segment struct {
	Kind  string   `json:"kind"`
	Start sim.Time `json:"start_us,omitempty"`
	End   sim.Time `json:"end_us,omitempty"`

	// Rate is the per-packet selection probability for loss, reorder,
	// duplicate and corrupt.
	Rate float64 `json:"rate,omitempty"`
	// DelayUs is the hold-back delay for reorder and the copy gap for
	// duplicate.
	DelayUs int64 `json:"delay_us,omitempty"`
	// JitterUs bounds the uniform per-packet delay for jitter.
	JitterUs int64 `json:"jitter_us,omitempty"`
	// Gilbert–Elliott parameters.
	PGoodBad float64 `json:"p_good_bad,omitempty"`
	PBadGood float64 `json:"p_bad_good,omitempty"`
	GoodLoss float64 `json:"good_loss,omitempty"`
	BadLoss  float64 `json:"bad_loss,omitempty"`
	// Link-flap period: DownUs of outage followed by UpUs of service.
	DownUs int64 `json:"down_us,omitempty"`
	UpUs   int64 `json:"up_us,omitempty"`
}

// active reports whether the segment covers time t.
//
//lrp:hotpath
func (s *Segment) active(t sim.Time) bool {
	return t >= s.Start && (s.End == 0 || t < s.End)
}

// Plan is a scripted fault timeline: a seed plus a list of impairment
// segments. Plans are plain data — serializable, comparable, and
// reusable across runs; compile one into a live Pipeline with New.
type Plan struct {
	Seed     uint64    `json:"seed"`
	Segments []Segment `json:"segments"`
}

// MaxDelayUs bounds every delay a plan sets (delay_us, jitter_us,
// down_us, up_us): one simulated hour. The largest in use is a 200 ms
// flap period; the bound keeps a user's plan from overflowing the engine
// clock or the jitter draw.
const MaxDelayUs = 3600 * sim.Second

// probability validates one [0,1] parameter.
func probability(kind, name string, v float64) error {
	if v < 0 || v > 1 {
		return fmt.Errorf("fault: %s segment: %s = %v outside [0, 1]", kind, name, v)
	}
	return nil
}

// delay validates one delay parameter of segment i: in (0, MaxDelayUs].
func delay(kind string, i int, name string, v int64) error {
	if v <= 0 || v > MaxDelayUs {
		return fmt.Errorf("fault: %s segment %d: %s = %d outside (0, %d]", kind, i, name, v, MaxDelayUs)
	}
	return nil
}

// Validate checks every segment for a known kind, sane windows, and
// in-range parameters.
func (p *Plan) Validate() error {
	for i := range p.Segments {
		s := &p.Segments[i]
		if s.Start < 0 || s.End < 0 || (s.End != 0 && s.End <= s.Start) {
			return fmt.Errorf("fault: segment %d (%s): window [%d, %d) is empty or negative", i, s.Kind, s.Start, s.End)
		}
		switch s.Kind {
		case KindLoss:
			if err := probability(s.Kind, "rate", s.Rate); err != nil {
				return err
			}
		case KindGilbertElliott:
			for _, pr := range []struct {
				name string
				v    float64
			}{
				{"p_good_bad", s.PGoodBad}, {"p_bad_good", s.PBadGood},
				{"good_loss", s.GoodLoss}, {"bad_loss", s.BadLoss},
			} {
				if err := probability(s.Kind, pr.name, pr.v); err != nil {
					return err
				}
			}
		case KindReorder, KindDuplicate:
			if err := probability(s.Kind, "rate", s.Rate); err != nil {
				return err
			}
			if err := delay(s.Kind, i, "delay_us", s.DelayUs); err != nil {
				return err
			}
		case KindCorrupt:
			if err := probability(s.Kind, "rate", s.Rate); err != nil {
				return err
			}
		case KindJitter:
			if err := delay(s.Kind, i, "jitter_us", s.JitterUs); err != nil {
				return err
			}
		case KindFlap:
			if err := delay(s.Kind, i, "down_us", s.DownUs); err != nil {
				return err
			}
			if err := delay(s.Kind, i, "up_us", s.UpUs); err != nil {
				return err
			}
		default:
			return fmt.Errorf("fault: segment %d: unknown kind %q", i, s.Kind)
		}
	}
	return nil
}

// MarshalJSON gives the zero-segment plan a stable encoding (segments as
// [], never null) so plan diffs are meaningful.
func (p Plan) MarshalJSON() ([]byte, error) {
	type alias Plan // drop methods to avoid recursion
	a := alias(p)
	if a.Segments == nil {
		a.Segments = []Segment{}
	}
	return json.Marshal(a)
}

// ParsePlan decodes and validates a JSON plan.
func ParsePlan(data []byte) (Plan, error) {
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return Plan{}, fmt.Errorf("fault: parse plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// ---------------------------------------------------------------------------
// Plan builders for the common single-impairment cases. Each returns a
// whole-run plan (one segment, active from time zero onward).

// one wraps a single segment into a plan.
func one(seed uint64, s Segment) Plan { return Plan{Seed: seed, Segments: []Segment{s}} }

// LossPlan is uniform Bernoulli loss at rate.
func LossPlan(seed uint64, rate float64) Plan {
	return one(seed, Segment{Kind: KindLoss, Rate: rate})
}

// GilbertElliottPlan is bursty loss: the bad state loses every packet,
// the good state none; meanBurst sets the expected bad-state dwell in
// packets and avgLoss the long-run loss fraction.
func GilbertElliottPlan(seed uint64, avgLoss float64, meanBurst float64) Plan {
	if meanBurst < 1 {
		meanBurst = 1
	}
	pBadGood := 1 / meanBurst
	// Stationary bad-state share pi = pGB/(pGB+pBG); solve for pGB.
	var pGoodBad float64
	if avgLoss > 0 && avgLoss < 1 {
		pGoodBad = pBadGood * avgLoss / (1 - avgLoss)
	} else if avgLoss >= 1 {
		pGoodBad = 1
	}
	if pGoodBad > 1 {
		pGoodBad = 1
	}
	return one(seed, Segment{
		Kind:     KindGilbertElliott,
		PGoodBad: pGoodBad, PBadGood: pBadGood,
		GoodLoss: 0, BadLoss: 1,
	})
}

// ReorderPlan holds back rate of packets by delayUs.
func ReorderPlan(seed uint64, rate float64, delayUs int64) Plan {
	return one(seed, Segment{Kind: KindReorder, Rate: rate, DelayUs: delayUs})
}

// DuplicatePlan duplicates rate of packets, copies arriving delayUs later.
func DuplicatePlan(seed uint64, rate float64, delayUs int64) Plan {
	return one(seed, Segment{Kind: KindDuplicate, Rate: rate, DelayUs: delayUs})
}

// CorruptPlan flips a payload byte in rate of packets.
func CorruptPlan(seed uint64, rate float64) Plan {
	return one(seed, Segment{Kind: KindCorrupt, Rate: rate})
}

// JitterPlan delays every packet by an independent uniform [0, jitterUs].
func JitterPlan(seed uint64, jitterUs int64) Plan {
	return one(seed, Segment{Kind: KindJitter, JitterUs: jitterUs})
}

// FlapPlan cycles the link down for downUs, up for upUs.
func FlapPlan(seed uint64, downUs, upUs int64) Plan {
	return one(seed, Segment{Kind: KindFlap, DownUs: downUs, UpUs: upUs})
}
