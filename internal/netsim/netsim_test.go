package netsim

import (
	"fmt"
	"testing"

	"lrp/internal/fault"
	"lrp/internal/mbuf"
	"lrp/internal/nic"
	"lrp/internal/pkt"
	"lrp/internal/race"
	"lrp/internal/sim"
)

const mbps155 = 155_000_000

var (
	addrA = pkt.IP(10, 0, 0, 1)
	addrB = pkt.IP(10, 0, 0, 2)
)

func twoHosts(t *testing.T) (*sim.Engine, *Network, *nic.NIC, *nic.NIC) {
	t.Helper()
	eng := sim.NewEngine()
	nw := New(eng)
	na := nic.New(eng, nic.Config{Name: "A", Mode: nic.ModeRaw})
	nb := nic.New(eng, nic.Config{Name: "B", Mode: nic.ModeRaw})
	nw.Attach(na, addrA, mbps155, 10)
	nw.Attach(nb, addrB, mbps155, 10)
	return eng, nw, na, nb
}

func TestDelivery(t *testing.T) {
	eng, _, na, nb := twoHosts(t)
	pool := mbuf.NewPool(0)
	p := pkt.UDPPacket(addrA, addrB, 1, 7, 1, 64, []byte("hello"), true)
	eng.At(0, func() { na.Send(pool.Alloc(p)) })
	eng.Run()
	if nb.RxPending() != 1 {
		t.Fatalf("B received %d packets", nb.RxPending())
	}
	m := nb.RxDequeue()
	if string(m.Data[pkt.IPv4HeaderLen+pkt.UDPHeaderLen:]) != "hello" {
		t.Fatal("payload corrupted in transit")
	}
	// Latency: tx serialization + propagation + rx serialization >= 2x
	// wire time + 10µs.
	if m.Arrival < 10 {
		t.Fatalf("arrived at %d, faster than propagation delay", m.Arrival)
	}
}

// TestTransmitHopAllocs pins host transmit at zero allocations: a warm
// datagram through one NIC's transmit, the wire and one hop into another
// NIC's ring allocates nothing. The NIC binds its completion callback
// once, and each port keeps its packet on the wire in a single slot.
func TestTransmitHopAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	eng, _, na, nb := twoHosts(t)
	pool := mbuf.NewPool(0)
	b := pkt.UDPPacket(addrA, addrB, 1, 7, 1, 64, []byte("x"), true)
	send := func() {
		na.Send(pool.AllocCopy(b))
		eng.Run()
		m := nb.RxDequeue()
		if m == nil {
			t.Fatal("B received nothing")
		}
		m.Free()
	}
	for i := 0; i < 10; i++ {
		send() // warm the pools and free lists
	}
	if n := testing.AllocsPerRun(100, send); n != 0 {
		t.Errorf("transmit plus one hop allocates %v per packet, want 0", n)
	}
}

func TestNoRouteCounted(t *testing.T) {
	eng, nw, na, _ := twoHosts(t)
	pool := mbuf.NewPool(0)
	p := pkt.UDPPacket(addrA, pkt.IP(99, 9, 9, 9), 1, 7, 1, 64, nil, true)
	eng.At(0, func() { na.Send(pool.Alloc(p)) })
	eng.Run()
	if nw.Stats().NoRoute != 1 {
		t.Fatalf("noroute = %d", nw.Stats().NoRoute)
	}
}

func TestInject(t *testing.T) {
	eng, nw, _, nb := twoHosts(t)
	p := pkt.UDPPacket(addrA, addrB, 1, 7, 1, 64, make([]byte, 14), true)
	eng.At(0, func() { nw.Inject(p) })
	eng.Run()
	if nb.RxPending() != 1 {
		t.Fatalf("B received %d", nb.RxPending())
	}
	if nw.Stats().Injected != 1 || nw.Stats().Delivered != 1 {
		t.Fatalf("stats %+v", nw.Stats())
	}
}

func TestReceiverLinkSerializationLimitsRate(t *testing.T) {
	// Injecting a large burst instantaneously must deliver packets paced
	// by the receiver's link bandwidth, not all at once.
	eng, nw, _, nb := twoHosts(t)
	nb.OnHostIntr = func() {}
	var arrivals []sim.Time
	done := make([]byte, 0)
	_ = done
	p := pkt.UDPPacket(addrA, addrB, 1, 7, 1, 64, make([]byte, 1458), false)
	const n = 10
	eng.At(0, func() {
		for i := 0; i < n; i++ {
			nw.Inject(p)
		}
	})
	// Poll ring as packets land.
	var poll func()
	poll = func() {
		for {
			m := nb.RxDequeue()
			if m == nil {
				break
			}
			arrivals = append(arrivals, eng.Now())
			m.Free()
			nb.IntrDone()
		}
		if len(arrivals) < n {
			eng.After(1, poll)
		}
	}
	eng.At(0, poll)
	eng.RunFor(sim.Second)
	if len(arrivals) != n {
		t.Fatalf("got %d arrivals", len(arrivals))
	}
	// 1500+24 bytes at 155 Mbit/s is ~78µs per packet; the last packet
	// should land no earlier than (n-1) * ~70µs.
	if last := arrivals[len(arrivals)-1]; last < 9*70 {
		t.Fatalf("burst compressed: last arrival at %dµs", last)
	}
}

func TestThroughputMatchesBandwidth(t *testing.T) {
	// Saturating the sender with large UDP packets should deliver
	// approximately link bandwidth at the receiver.
	eng, _, na, nb := twoHosts(t)
	pool := mbuf.NewPool(0)
	payload := make([]byte, 8000)
	var rxBytes int
	// Feed the interface queue continuously.
	var feed func()
	feed = func() {
		for na.IfqLen() < 10 {
			na.Send(pool.Alloc(pkt.UDPPacket(addrA, addrB, 1, 7, 1, 64, payload, false)))
		}
		eng.After(100, feed)
	}
	var drain func()
	drain = func() {
		for {
			m := nb.RxDequeue()
			if m == nil {
				break
			}
			rxBytes += m.Len()
			m.Free()
		}
		nb.IntrDone()
		eng.After(100, drain)
	}
	eng.At(0, feed)
	eng.At(0, drain)
	eng.RunFor(sim.Second)
	gotMbps := float64(rxBytes) * 8 / 1e6
	if gotMbps < 120 || gotMbps > 156 {
		t.Fatalf("throughput %.1f Mbit/s, want ~150", gotMbps)
	}
}

func TestDuplicateAttachPanics(t *testing.T) {
	eng := sim.NewEngine()
	nw := New(eng)
	na := nic.New(eng, nic.Config{Mode: nic.ModeRaw})
	nw.Attach(na, addrA, mbps155, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate attach did not panic")
		}
	}()
	nw.Attach(na, addrA, mbps155, 10)
}

func TestMulticastFanoutDelivery(t *testing.T) {
	eng := sim.NewEngine()
	nw := New(eng)
	a := nic.New(eng, nic.Config{Mode: nic.ModeRaw})
	b := nic.New(eng, nic.Config{Mode: nic.ModeRaw})
	c := nic.New(eng, nic.Config{Mode: nic.ModeRaw})
	nw.Attach(a, addrA, mbps155, 10)
	nw.Attach(b, addrB, mbps155, 10)
	nw.Attach(c, pkt.IP(10, 0, 0, 3), mbps155, 10)
	group := pkt.IP(224, 0, 0, 9)
	p := pkt.UDPPacket(addrA, group, 1, 5353, 1, 64, []byte("m"), true)
	pool := mbuf.NewPool(0)
	eng.At(0, func() { a.Send(pool.Alloc(p)) })
	eng.Run()
	// Sender excluded; both others get a copy.
	if a.RxPending() != 0 {
		t.Fatal("sender received its own multicast")
	}
	if b.RxPending() != 1 || c.RxPending() != 1 {
		t.Fatalf("fanout: b=%d c=%d", b.RxPending(), c.RxPending())
	}
}

func TestRouteViaGateway(t *testing.T) {
	eng, nw, _, gw := twoHosts(t)
	far := pkt.IP(172, 16, 0, 9)
	if err := nw.AddRouteFrom(addrA, far, addrB); err != nil {
		t.Fatal(err)
	}
	eng.At(0, func() {
		nw.InjectFrom(addrA, pkt.UDPPacket(addrA, far, 1, 7, 1, 64, nil, true))
	})
	eng.Run()
	if gw.RxPending() != 1 {
		t.Fatalf("gateway received %d packets for the routed prefix", gw.RxPending())
	}
	if nw.Stats().NoRoute != 0 {
		t.Fatal("routed packet counted as NoRoute")
	}
	// Unrouted foreign destination still counts NoRoute.
	eng.At(eng.Now()+1, func() {
		nw.InjectFrom(addrA, pkt.UDPPacket(addrA, pkt.IP(172, 16, 0, 10), 1, 7, 1, 64, nil, true))
	})
	eng.Run()
	if nw.Stats().NoRoute != 1 {
		t.Fatalf("noroute = %d", nw.Stats().NoRoute)
	}
}

func TestLossInjection(t *testing.T) {
	eng := sim.NewEngine()
	nw := New(eng)
	b := nic.New(eng, nic.Config{Mode: nic.ModeRaw, RxRingSize: 4096})
	nw.Attach(b, addrB, mbps155, 10)
	nw.SetFaults(fault.MustNew(fault.LossPlan(77, 0.5)))
	p := pkt.UDPPacket(addrA, addrB, 1, 7, 1, 64, nil, true)
	eng.At(0, func() {
		for i := 0; i < 1000; i++ {
			nw.Inject(p)
		}
	})
	eng.Run()
	got := b.RxPending()
	lost := int(nw.Stats().Lost)
	if got+lost != 1000 {
		t.Fatalf("got %d + lost %d != 1000", got, lost)
	}
	if lost < 400 || lost > 600 {
		t.Fatalf("lost %d of 1000 at 50%% loss", lost)
	}
	// Disabling loss restores full delivery.
	nw.SetFaults(nil)
	eng.At(eng.Now()+1, func() { nw.Inject(p) })
	eng.Run()
	if int(nw.Stats().Lost) != lost {
		t.Fatal("loss still active after disable")
	}
}

func TestMalformedInjectNoRoute(t *testing.T) {
	eng := sim.NewEngine()
	nw := New(eng)
	eng.At(0, func() { nw.Inject([]byte{1, 2, 3}) })
	eng.Run()
	if nw.Stats().NoRoute != 1 {
		t.Fatalf("malformed packet not counted: %+v", nw.Stats())
	}
}

func TestRouteViaGatewayReleasesMbuf(t *testing.T) {
	// The gateway delivery path must consume the wire reference exactly
	// once: after delivery the sender pool drains back to zero.
	eng, nw, _, gw := twoHosts(t)
	far := pkt.IP(172, 16, 0, 9)
	if err := nw.AddRouteFrom(addrA, far, addrB); err != nil {
		t.Fatal(err)
	}
	pool := mbuf.NewPool(8)
	eng.At(0, func() {
		m := pool.AllocCopy(pkt.UDPPacket(addrA, far, 1, 7, 1, 64, nil, true))
		nw.InjectMbufFrom(addrA, m)
	})
	eng.Run()
	if gw.RxPending() != 1 {
		t.Fatalf("gateway received %d", gw.RxPending())
	}
	if s := pool.Stats(); s.InUse != 0 {
		t.Fatalf("routed mbuf leaked: %d still in use", s.InUse)
	}
}

func TestMulticastFanoutOrderDeterministic(t *testing.T) {
	// Multicast copies must reach receivers in attachment order — the
	// fanout iterates nw.order, never the ports map. Observed via the
	// host-interrupt hook, which fires synchronously inside Rx.
	for run := 0; run < 3; run++ {
		eng := sim.NewEngine()
		nw := New(eng)
		var firing []string
		hook := func(name string) func() {
			return func() { firing = append(firing, name) }
		}
		addrs := []pkt.Addr{pkt.IP(10, 0, 0, 3), addrB, pkt.IP(10, 0, 0, 4)}
		names := []string{"c", "b", "d"}
		for i, a := range addrs {
			n := nic.New(eng, nic.Config{Name: names[i], Mode: nic.ModeRaw})
			n.OnHostIntr = hook(names[i])
			nw.Attach(n, a, mbps155, 10)
		}
		p := pkt.UDPPacket(addrA, pkt.IP(224, 0, 0, 9), 1, 5353, 1, 64, []byte("m"), true)
		eng.At(0, func() { nw.Inject(p) })
		eng.Run()
		if got := fmt.Sprint(firing); got != "[c b d]" {
			t.Fatalf("run %d: fanout order %v, want attachment order [c b d]", run, firing)
		}
	}
}

func TestMulticastNoReceiversReleasesStorage(t *testing.T) {
	// A multicast from the only attached host has no receivers: the wire
	// reference must still be released so the pool drains.
	eng := sim.NewEngine()
	nw := New(eng)
	a := nic.New(eng, nic.Config{Mode: nic.ModeRaw})
	nw.Attach(a, addrA, mbps155, 10)
	pool := mbuf.NewPool(4)
	eng.At(0, func() {
		m := pool.AllocCopy(pkt.UDPPacket(addrA, pkt.IP(224, 0, 0, 9), 1, 5353, 1, 64, nil, true))
		nw.InjectMbuf(m)
	})
	eng.Run()
	if s := nw.Stats(); s.Delivered != 0 {
		t.Fatalf("delivered %d copies with no receivers", s.Delivered)
	}
	if s := pool.Stats(); s.InUse != 0 {
		t.Fatalf("no-receiver multicast leaked: %d in use", s.InUse)
	}
}

func TestMulticastFanoutReleasesAllReferences(t *testing.T) {
	// Fanout to two receivers takes an extra wire reference; both must be
	// consumed at delivery so the generator pool drains.
	eng := sim.NewEngine()
	nw := New(eng)
	a := nic.New(eng, nic.Config{Mode: nic.ModeRaw})
	b := nic.New(eng, nic.Config{Mode: nic.ModeRaw})
	c := nic.New(eng, nic.Config{Mode: nic.ModeRaw})
	nw.Attach(a, addrA, mbps155, 10)
	nw.Attach(b, addrB, mbps155, 10)
	nw.Attach(c, pkt.IP(10, 0, 0, 3), mbps155, 10)
	pool := mbuf.NewPool(4)
	eng.At(0, func() {
		m := pool.AllocCopy(pkt.UDPPacket(addrA, pkt.IP(224, 0, 0, 9), 1, 5353, 1, 64, []byte("m"), true))
		nw.InjectMbuf(m)
	})
	eng.Run()
	if b.RxPending() != 1 || c.RxPending() != 1 {
		t.Fatalf("fanout: b=%d c=%d", b.RxPending(), c.RxPending())
	}
	if s := pool.Stats(); s.InUse != 0 {
		t.Fatalf("fanout leaked: %d in use", s.InUse)
	}
}
