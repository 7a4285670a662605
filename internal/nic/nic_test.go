package nic

import (
	"testing"

	"lrp/internal/mbuf"
	"lrp/internal/sim"
)

func rawNIC(eng *sim.Engine) *NIC {
	return New(eng, Config{Name: "test", Mode: ModeRaw, RxRingSize: 4})
}

func TestRawRxRaisesOneInterruptPerBatch(t *testing.T) {
	eng := sim.NewEngine()
	n := rawNIC(eng)
	intrs := 0
	n.OnHostIntr = func() { intrs++ }
	n.Rx(make([]byte, 10))
	n.Rx(make([]byte, 10))
	n.Rx(make([]byte, 10))
	if intrs != 1 {
		t.Fatalf("interrupts = %d, want 1 (coalesced while pending)", intrs)
	}
	if n.RxPending() != 3 {
		t.Fatalf("ring = %d", n.RxPending())
	}
	// Drain and complete: no packets left, no new interrupt.
	for n.RxDequeue() != nil {
	}
	n.IntrDone()
	if intrs != 1 {
		t.Fatalf("interrupts = %d after drain", intrs)
	}
	// Next packet raises again.
	n.Rx(make([]byte, 10))
	if intrs != 2 {
		t.Fatalf("interrupts = %d, want 2", intrs)
	}
}

func TestIntrDoneReRaisesWhenRingNonEmpty(t *testing.T) {
	eng := sim.NewEngine()
	n := rawNIC(eng)
	intrs := 0
	n.OnHostIntr = func() { intrs++ }
	n.Rx(make([]byte, 10))
	n.RxDequeue().Free()
	n.Rx(make([]byte, 10)) // arrives while handler still running: no new intr
	if intrs != 1 {
		t.Fatalf("interrupts = %d", intrs)
	}
	n.IntrDone() // ring non-empty -> immediate re-raise
	if intrs != 2 {
		t.Fatalf("interrupts = %d, want 2", intrs)
	}
}

func TestRxRingOverflowDrops(t *testing.T) {
	eng := sim.NewEngine()
	n := rawNIC(eng) // ring size 4
	for i := 0; i < 6; i++ {
		n.Rx(make([]byte, 10))
	}
	st := n.Stats()
	if st.RxRingDrops != 2 {
		t.Fatalf("ring drops = %d, want 2", st.RxRingDrops)
	}
	if st.RxPackets != 6 {
		t.Fatalf("rx packets = %d", st.RxPackets)
	}
}

func TestPoolExhaustionDropsAtRing(t *testing.T) {
	eng := sim.NewEngine()
	pool := mbuf.NewPool(2)
	n := New(eng, Config{Mode: ModeRaw, RxRingSize: 10, Pool: pool})
	for i := 0; i < 4; i++ {
		n.Rx(make([]byte, 10))
	}
	if n.Stats().RxRingDrops != 2 {
		t.Fatalf("drops = %d", n.Stats().RxRingDrops)
	}
}

func TestSmartModeProcessesSerially(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, Config{Mode: ModeSmart, NICPerPktCost: 10})
	var times []sim.Time
	n.OnNICProcess = func(m *mbuf.Mbuf) {
		times = append(times, eng.Now())
		m.Free()
	}
	eng.At(0, func() {
		n.Rx(make([]byte, 10))
		n.Rx(make([]byte, 10))
		n.Rx(make([]byte, 10))
	})
	eng.Run()
	if len(times) != 3 {
		t.Fatalf("processed %d", len(times))
	}
	want := []sim.Time{10, 20, 30}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestSmartModeBacklogLimit(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, Config{Mode: ModeSmart, NICPerPktCost: 100, NICInputLimit: 2})
	processed := 0
	n.OnNICProcess = func(m *mbuf.Mbuf) { processed++; m.Free() }
	eng.At(0, func() {
		for i := 0; i < 5; i++ {
			n.Rx(make([]byte, 10))
		}
	})
	eng.Run()
	if processed != 2 {
		t.Fatalf("processed = %d, want 2", processed)
	}
	if n.Stats().NICDrops != 3 {
		t.Fatalf("nic drops = %d, want 3", n.Stats().NICDrops)
	}
}

func TestSendSerializesViaTransmit(t *testing.T) {
	eng := sim.NewEngine()
	pool := mbuf.NewPool(0)
	n := New(eng, Config{Mode: ModeRaw, IfqLimit: 10})
	var sentAt []sim.Time
	n.Transmit = func(m *mbuf.Mbuf, done func()) {
		sentAt = append(sentAt, eng.Now())
		eng.After(50, func() { m.EndTransfer(); done() }) // 50µs serialization per packet
	}
	eng.At(0, func() {
		n.Send(pool.Alloc(make([]byte, 100)))
		n.Send(pool.Alloc(make([]byte, 100)))
		n.Send(pool.Alloc(make([]byte, 100)))
	})
	eng.Run()
	want := []sim.Time{0, 50, 100}
	if len(sentAt) != 3 {
		t.Fatalf("sent %d", len(sentAt))
	}
	for i := range want {
		if sentAt[i] != want[i] {
			t.Fatalf("sentAt = %v, want %v", sentAt, want)
		}
	}
	if n.Stats().TxPackets != 3 {
		t.Fatalf("tx = %d", n.Stats().TxPackets)
	}
}

func TestIfqOverflowDrops(t *testing.T) {
	eng := sim.NewEngine()
	pool := mbuf.NewPool(0)
	n := New(eng, Config{Mode: ModeRaw, IfqLimit: 2})
	n.Transmit = func(m *mbuf.Mbuf, done func()) {
		eng.After(1000, func() { m.EndTransfer(); done() })
	}
	eng.At(0, func() {
		for i := 0; i < 5; i++ {
			n.Send(pool.Alloc(make([]byte, 10)))
		}
	})
	eng.RunFor(100)
	// One in flight, two queued, two dropped.
	if d := n.Stats().TxQueueDrops; d != 2 {
		t.Fatalf("ifq drops = %d, want 2", d)
	}
}

func TestChannelDeliverEarlyDiscard(t *testing.T) {
	pool := mbuf.NewPool(0)
	c := NewChannel(2)
	we, ok := c.Deliver(pool.Alloc(nil))
	if !we || !ok {
		t.Fatalf("first deliver: wasEmpty=%v ok=%v", we, ok)
	}
	we, ok = c.Deliver(pool.Alloc(nil))
	if we || !ok {
		t.Fatalf("second deliver: wasEmpty=%v ok=%v", we, ok)
	}
	if _, ok = c.Deliver(pool.Alloc(nil)); ok {
		t.Fatal("over-limit deliver should fail")
	}
	if c.Queue.Drops() != 1 {
		t.Fatalf("drops = %d", c.Queue.Drops())
	}
	if pool.Stats().InUse != 2 {
		t.Fatalf("dropped packet not freed: %d in use", pool.Stats().InUse)
	}
}

func TestChannelProcessingDisabled(t *testing.T) {
	pool := mbuf.NewPool(0)
	c := NewChannel(10)
	c.ProcessingDisabled = true
	if _, ok := c.Deliver(pool.Alloc(nil)); ok {
		t.Fatal("disabled channel accepted packet")
	}
	if c.DisabledDrops != 1 {
		t.Fatalf("disabled drops = %d", c.DisabledDrops)
	}
	if pool.Stats().InUse != 0 {
		t.Fatal("dropped packet leaked")
	}
}

// TestSmartModeBacklogStorageBounded keeps the embedded processor
// saturated for 4 s — 60 µs per packet against Poisson arrivals at 24k
// pkt/s, so the backlog never drains — and checks that the backlog's
// storage stays within twice its NICInputLimit bound.
func TestSmartModeBacklogStorageBounded(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, Config{Mode: ModeSmart, NICPerPktCost: 60, NICInputLimit: 256})
	n.OnNICProcess = func(m *mbuf.Mbuf) { m.Free() }
	rng := sim.NewRand(1)
	frame := make([]byte, 64)
	var arrive func()
	arrive = func() {
		n.Rx(frame)
		eng.After(rng.ExpDuration(1_000_000/24_000), arrive)
	}
	eng.At(0, arrive)
	eng.RunFor(4 * sim.Second)
	if n.Stats().NICDrops == 0 {
		t.Fatal("the embedded processor never saturated")
	}
	if c := n.backlog.Cap(); c > 2*n.NICInputLimit {
		t.Errorf("backlog holds %d slots for a limit of %d packets", c, n.NICInputLimit)
	}
}
