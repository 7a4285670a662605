package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired out of order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %d, want 30", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(10, func() { fired = true })
	e.Cancel(ev)
	e.Cancel(ev) // double cancel must be a no-op
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Fatal("event does not report cancelled")
	}
}

func TestEngineCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine()
	var got []int
	evs := make([]Event, 0, 20)
	for i := 0; i < 20; i++ {
		i := i
		evs = append(evs, e.At(Time(i*10), func() { got = append(got, i) }))
	}
	// Cancel every third event.
	want := 0
	for i, ev := range evs {
		if i%3 == 1 {
			e.Cancel(ev)
		} else {
			want++
		}
	}
	e.Run()
	if len(got) != want {
		t.Fatalf("got %d events, want %d", len(got), want)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("out of order after cancels: %v", got)
		}
	}
}

func TestEngineScheduleInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(50, func() {})
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, tm := range []Time{5, 10, 15, 20, 25} {
		tm := tm
		e.At(tm, func() { got = append(got, tm) })
	}
	n := e.RunUntil(15)
	if n != 3 {
		t.Fatalf("processed %d events, want 3", n)
	}
	if e.Now() != 15 {
		t.Fatalf("clock = %d, want 15 (advance to deadline)", e.Now())
	}
	n = e.RunUntil(100)
	if n != 2 {
		t.Fatalf("processed %d more events, want 2", n)
	}
	if e.Now() != 100 {
		t.Fatalf("clock = %d, want 100", e.Now())
	}
}

func TestEngineRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine()
	e.RunUntil(500)
	if e.Now() != 500 {
		t.Fatalf("idle engine clock = %d, want 500", e.Now())
	}
}

func TestEngineAfterNegativeClamps(t *testing.T) {
	e := NewEngine()
	fired := false
	e.At(10, func() {
		e.After(-5, func() { fired = true })
	})
	e.Run()
	if !fired {
		t.Fatal("After with negative delay did not fire")
	}
	if e.Now() != 10 {
		t.Fatalf("clock = %d, want 10", e.Now())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	e.At(1, func() { count++ })
	e.At(2, func() { count++; e.Stop() })
	e.At(3, func() { count++ })
	e.Run()
	if count != 2 {
		t.Fatalf("count = %d, want 2 (stop mid-run)", count)
	}
	if !e.Stopped() {
		t.Fatal("engine does not report stopped")
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
}

func TestEngineEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine()
	var got []Time
	e.At(10, func() {
		got = append(got, e.Now())
		e.After(5, func() { got = append(got, e.Now()) })
	})
	e.Run()
	if len(got) != 2 || got[0] != 10 || got[1] != 15 {
		t.Fatalf("nested scheduling failed: %v", got)
	}
}

func TestEngineNextEventTime(t *testing.T) {
	e := NewEngine()
	if e.NextEventTime() != MaxTime {
		t.Fatal("empty queue should report MaxTime")
	}
	e.At(42, func() {})
	if e.NextEventTime() != 42 {
		t.Fatalf("NextEventTime = %d, want 42", e.NextEventTime())
	}
}

// A look-ahead can move the wheel cursor past Now: NextEventTime cascades
// the event at 1000 down to tier 0 and leaves the cursor at 1000, so the
// inserts at 950, 920 and 900 land behind the cursor in the overflow heap.
// They must still fire first, in time order.
func TestEngineInsertBehindAdvancedCursor(t *testing.T) {
	e := NewEngine()
	var got []Time
	rec := func() { got = append(got, e.Now()) }
	e.At(1000, rec)
	if e.NextEventTime() != 1000 {
		t.Fatalf("NextEventTime = %d, want 1000", e.NextEventTime())
	}
	e.At(950, rec)
	e.At(920, rec)
	e.At(900, rec)
	if n := len(e.overflow.a); n != 3 {
		t.Fatalf("%d events in the overflow heap, want the 3 behind the cursor", n)
	}
	e.Run()
	want := []Time{900, 920, 950, 1000}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// Cancelling an event and re-arming it earlier is how the kernel preempts
// a CPU burst: the re-armed event must win over everything it now precedes.
func TestEngineCancelThenRearmEarlier(t *testing.T) {
	e := NewEngine()
	var got []int64

	ev := e.At(100, func() { t.Fatal("cancelled event fired") })
	e.At(70, func() { got = append(got, e.Now()) })
	e.Cancel(ev)
	e.At(50, func() { got = append(got, e.Now()) })
	e.Run()

	want := []int64{50, 70}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// A callback may re-arm at the very instant it fires; the new event runs
// after it, at the same time.
func TestEngineRearmAtSameInstant(t *testing.T) {
	e := NewEngine()
	var got []string
	e.At(100, func() {
		got = append(got, "first")
		e.At(e.Now(), func() { got = append(got, "second") })
	})
	e.Run()
	if len(got) != 2 || got[0] != "first" || got[1] != "second" || e.Now() != 100 {
		t.Fatalf("got %v at %d", got, e.Now())
	}
}

// Property: any batch of events fires in nondecreasing time order and the
// engine processes exactly the scheduled count.
func TestEngineOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, d := range delays {
			e.At(Time(d), func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed generators diverged")
		}
	}
	c := NewRand(8)
	same := true
	for i := 0; i < 10; i++ {
		if NewRand(7).Uint64() == c.Uint64() {
			continue
		}
		same = false
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRandZeroSeed(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed stuck at zero")
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(123)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRandInt63nRange(t *testing.T) {
	r := NewRand(99)
	seen := map[int64]bool{}
	for i := 0; i < 10000; i++ {
		v := r.Int63n(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Int63n out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Int63n(10) only produced %d distinct values", len(seen))
	}
}

func TestRandJitter(t *testing.T) {
	r := NewRand(5)
	for i := 0; i < 1000; i++ {
		v := r.Jitter(1000, 0.1)
		if v < 900 || v > 1100 {
			t.Fatalf("Jitter out of band: %d", v)
		}
	}
	if r.Jitter(0, 0.5) != 0 {
		t.Fatal("Jitter(0) should be 0")
	}
	if r.Jitter(100, 0) != 100 {
		t.Fatal("Jitter with zero frac should be identity")
	}
}

func TestRandExpDurationMean(t *testing.T) {
	r := NewRand(42)
	const mean = 1000
	var sum int64
	const n = 200000
	for i := 0; i < n; i++ {
		d := r.ExpDuration(mean)
		if d < 0 {
			t.Fatalf("negative duration %d", d)
		}
		sum += d
	}
	got := float64(sum) / n
	if got < 0.9*mean || got > 1.1*mean {
		t.Fatalf("exp mean = %.1f, want ~%d", got, mean)
	}
}

func BenchmarkEngineScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.At(Time(j), func() {})
		}
		e.Run()
	}
}
