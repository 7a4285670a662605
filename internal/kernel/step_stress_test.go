package kernel

// Stress and equivalence coverage for stackless processes: the 100k-proc
// world stackless processes make cheap (100k goroutines would cost
// gigabytes of stacks and channel-pair context switches), and the
// Spawn bridge's contract (a body hosted on a goroutine issues exactly
// the request stream of the same machine stepped inline).

import (
	"testing"

	"lrp/internal/sim"
)

// TestStackless100kProcs holds 100,000 stackless processes asleep in one
// world, then runs every one through a full lifecycle — wake, compute,
// wake the next, exit — and checks each finishes with exact accounting.
// Per-proc footprint is one Proc plus one closure; a goroutine per
// process would need ~100k stacks. Spawning is staggered in batches so
// the runnable set stays small (the scheduler's pick is O(runnable),
// priced for worlds where nearly everything is blocked on I/O — the
// paper's server scenario — not for 100k simultaneously-runnable procs).
func TestStackless100kProcs(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-process world; skipped in -short")
	}
	eng, k := newTestKernel(t)
	const (
		n     = 100_000
		batch = 100
	)
	wqs := make([]WaitQ, n)
	procs := make([]*Proc, n)
	done := 0
	for b := 0; b < n/batch; b++ {
		lo := b * batch
		eng.At(int64(b+1), func() {
			for i := lo; i < lo+batch; i++ {
				i := i
				pc := 0
				procs[i] = k.SpawnStep("stress", 0, func(p *Proc) {
					for {
						switch pc {
						case 0:
							pc = 1
							p.ReqSleep(&wqs[i])
							return
						case 1:
							pc = 2
							if p.ReqCompute(10) {
								return
							}
						case 2:
							pc = 3
							if p.ReqComputeSys(5) {
								return
							}
						case 3:
							done++
							if i+1 < n {
								wqs[i+1].WakeupAll()
							}
							p.ReqExit()
							return
						}
					}
				})
			}
		})
	}
	// All batches are spawned and asleep well before t=10ms: 100k live
	// processes in one world. Then a wakeup chain passes through every
	// process in sequence.
	eng.At(10*sim.Millisecond, func() { wqs[0].WakeupAll() })
	// The chain consumes 100k × 15µs = 1.5 simulated seconds of CPU.
	eng.RunFor(3 * sim.Second)
	if done != n {
		t.Fatalf("%d of %d processes completed", done, n)
	}
	for _, p := range procs {
		if !p.Dead() {
			t.Fatalf("process %s not dead after completing", p.Name)
		}
		if p.UTime != 10 || p.STime != 5 {
			t.Fatalf("accounting utime=%d stime=%d, want 10/5", p.UTime, p.STime)
		}
	}
}

// hosted wraps a step machine as a Spawn body: each pass runs one step
// on the bridged goroutine and blocks on the request it stored. A
// pending ReqExit unwinds the body at Block, as Exit does.
func hosted(step StepFn) func(*Proc) {
	return func(p *Proc) {
		for {
			step(p)
			p.Block()
		}
	}
}

// TestMixedModeEquivalence runs the same two-process producer/consumer
// state machine three ways — both stackless, both hosted in Spawn bodies,
// and one of each — and requires identical completion times and
// accounting. This pins the Spawn bridge: scheduling depends only on the
// request stream, never on whether a goroutine hosts the body.
func TestMixedModeEquivalence(t *testing.T) {
	type result struct {
		doneAt sim.Time
		prodU  int64
		prodS  int64
		consS  int64
	}
	run := func(bridgedA, bridgedB bool) result {
		eng := sim.NewEngine()
		k := New(eng, "test")
		defer k.Shutdown()
		var full, empty WaitQ
		queued := 0
		spawn := func(bridged bool, name string, step StepFn) *Proc {
			if bridged {
				return k.Spawn(name, 0, hosted(step))
			}
			return k.SpawnStep(name, 0, step)
		}
		produced := 0
		a := spawn(bridgedA, "producer", func(p *Proc) {
			for {
				if produced == 50 {
					p.ReqExit()
					return
				}
				if queued >= 4 {
					p.ReqSleep(&empty)
					return
				}
				produced++
				queued++
				full.WakeupAll()
				if p.ReqCompute(30) {
					return
				}
			}
		})
		consumed := 0
		var doneAt sim.Time
		b := spawn(bridgedB, "consumer", func(p *Proc) {
			for {
				if consumed == 50 {
					doneAt = p.Now()
					p.ReqExit()
					return
				}
				if queued == 0 {
					p.ReqSleep(&full)
					return
				}
				queued--
				consumed++
				empty.WakeupAll()
				if p.ReqComputeSys(70) {
					return
				}
			}
		})
		eng.RunFor(10 * sim.Second)
		if consumed != 50 {
			t.Fatalf("consumed %d of 50 (bridgedA=%v bridgedB=%v)", consumed, bridgedA, bridgedB)
		}
		return result{doneAt: doneAt, prodU: a.UTime, prodS: a.STime, consS: b.STime}
	}
	base := run(false, false)
	if bridged := run(true, true); bridged != base {
		t.Errorf("all-bridged run diverged: %+v vs %+v", bridged, base)
	}
	if mixed := run(false, true); mixed != base {
		t.Errorf("mixed run diverged: %+v vs %+v", mixed, base)
	}
	if mixed := run(true, false); mixed != base {
		t.Errorf("mixed run diverged: %+v vs %+v", mixed, base)
	}
}
