package kernel

import (
	"runtime"
	"strings"
	"testing"

	"lrp/internal/sim"
)

// goroutinesSettle waits for unwound goroutines to finish returning and
// reports whether the count is back to base.
func goroutinesSettle(base int) bool {
	for i := 0; i < 10000; i++ {
		if runtime.NumGoroutine() <= base {
			return true
		}
		runtime.Gosched()
	}
	return false
}

// TestSpawnBridgeLifecycle covers every way a Spawn process's goroutine
// ends: Shutdown unwinding it in each state it can be parked in, a
// panicking body surfacing as a crash on the RunUntil caller, and the
// three spellings of a normal exit.
func TestSpawnBridgeLifecycle(t *testing.T) {
	t.Run("shutdown", func(t *testing.T) {
		base := runtime.NumGoroutine()
		eng := sim.NewEngine()
		k := New(eng, "test")
		var wq WaitQ
		asleep := k.Spawn("asleep", 0, func(p *Proc) { p.Sleep(&wq) })
		computing := k.Spawn("computing", 0, func(p *Proc) { p.Compute(sim.Second) })
		eng.RunFor(10 * sim.Millisecond)
		// Spawned after the run: never dispatched, still parked at birth.
		unborn := k.Spawn("unborn", 0, func(p *Proc) { p.Compute(1) })
		if !asleep.Sleeping() || computing.Dead() || computing.Sleeping() || unborn.bridge != nil {
			t.Fatal("processes not in the states under test")
		}
		k.Shutdown()
		for _, p := range k.Procs() {
			if !p.Dead() {
				t.Errorf("proc %s alive after shutdown", p.Name)
			}
		}
		if !goroutinesSettle(base) {
			t.Errorf("%d goroutines after shutdown, baseline %d", runtime.NumGoroutine(), base)
		}
	})

	t.Run("crash", func(t *testing.T) {
		eng, k := newTestKernel(t)
		k.Spawn("x", 0, func(p *Proc) {
			p.Compute(10)
			panic("boom")
		})
		defer func() {
			msg, _ := recover().(string)
			if !strings.HasPrefix(msg, `kernel: process "x" crashed: boom`) {
				t.Fatalf("RunUntil panicked with %q, want the crash report", msg)
			}
		}()
		eng.RunFor(sim.Millisecond)
		t.Fatal("crash did not surface on the RunUntil caller")
	})

	t.Run("exit", func(t *testing.T) {
		base := runtime.NumGoroutine()
		eng, k := newTestKernel(t)
		bodies := map[string]func(*Proc){
			"exit":   func(p *Proc) { p.Compute(100); p.Exit() },
			"return": func(p *Proc) { p.Compute(100) },
			"block":  func(p *Proc) { p.Compute(100); p.ReqExit(); p.Block() },
		}
		var procs []*Proc
		for _, name := range []string{"exit", "return", "block"} {
			procs = append(procs, k.Spawn(name, 0, bodies[name]))
		}
		eng.RunFor(sim.Millisecond)
		for _, p := range procs {
			if !p.Dead() || p.ExitTime == 0 || p.UTime != 100 {
				t.Errorf("%s: dead=%v exit=%d utime=%d, want an exit after 100µs of compute",
					p.Name, p.Dead(), p.ExitTime, p.UTime)
			}
		}
		if !goroutinesSettle(base) {
			t.Errorf("%d goroutines after every body exited, baseline %d", runtime.NumGoroutine(), base)
		}
	})
}
