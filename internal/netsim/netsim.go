// Package netsim models the local-area network connecting simulated hosts:
// point-to-point attachment of NICs to a non-blocking switch with
// configurable link bandwidth and propagation delay, plus raw packet
// injectors for traffic generators (the equivalent of the paper's
// "in-kernel packet source on the sender").
package netsim

import (
	"fmt"

	"lrp/internal/fault"
	"lrp/internal/mbuf"
	"lrp/internal/nic"
	"lrp/internal/pkt"
	"lrp/internal/sim"
)

// DefaultFrameOverhead approximates per-packet link-level overhead in
// bytes (ATM AAL5 trailer + cell headers, amortized).
const DefaultFrameOverhead = 24

// Stats counts network-level events.
type Stats struct {
	Delivered uint64 // packets handed to a destination NIC (duplicates included)
	NoRoute   uint64 // packets whose destination IP had no attached host
	Injected  uint64 // packets entered via Inject
	Lost      uint64 // packets dropped by injected loss (any fault pipeline drop)
	Corrupted uint64 // packets delivered with fault-injected payload corruption
}

// port is one host attachment.
type port struct {
	nw           *Network
	nic          *nic.NIC
	addr         pkt.Addr
	bwBytesPerUs float64 // link bandwidth
	propDelay    int64
	// rxFreeAt serializes delivery into the host: a 155 Mbit/s link can
	// only hand over so many packets per second.
	rxFreeAt sim.Time
	// txM and txDone hold the packet on the wire and the NIC's completion
	// callback. A NIC transmits one packet at a time, so one slot per port
	// suffices, and txFn, the completion event, is bound once in Attach.
	txM    *mbuf.Mbuf
	txDone func()
	txFn   func()
	// rcDst/rcVia cache the last unicast routing decision for packets
	// leaving this attachment, so steady flows skip the per-packet map
	// lookups. Invalidated whenever the topology changes.
	rcDst pkt.Addr
	rcVia *port
	// faults, when non-nil, impairs traffic delivered to this port, on
	// top of the network-wide pipeline.
	faults *fault.Pipeline
	// routes are this port's next-hop entries, the network's only route
	// table: traffic transmitted (or injected) from this attachment for a
	// matching destination is handed to the attached host at the entry's
	// gateway address, even when the destination is itself attached. This
	// is what makes multi-hop topologies expressible on one switch fabric:
	// each segment of a forwarding chain is a per-port route pointing at
	// the next hop. Nil until the first AddRouteFrom.
	routes map[pkt.Addr]pkt.Addr
}

// Network is the simulated LAN.
type Network struct {
	Eng *sim.Engine
	// FrameOverhead is added to every packet's size for serialization
	// timing.
	FrameOverhead int

	ports map[pkt.Addr]*port
	order []*port // attachment order, for deterministic multicast fanout
	stats Stats

	// faults, when non-nil, impairs every delivery on the network.
	faults *fault.Pipeline
	// scratch backs corrupted deliveries: the wire bytes are copied here
	// and flipped at delivery time, so shared mbuf storage (multicast
	// fanout, generator-recycled buffers) is never mutated. One buffer
	// suffices because the receiving NIC copies the packet synchronously
	// in Rx and events fire one at a time.
	scratch []byte
	// freeDeliv recycles delivery thunks: one closure per pooled object,
	// built at creation, instead of one per delivered packet.
	freeDeliv []*delivery
	// rcDst/rcVia cache the last routing decision for origin-less
	// (injected) traffic; injFrom/injPort the last injector attachment
	// lookup. Invalidated whenever the topology changes.
	rcDst   pkt.Addr
	rcVia   *port
	injFrom pkt.Addr
	injPort *port
}

// delivery is a pooled in-flight packet handoff: the receive-side firing
// thunk for one packet, recycled so the per-packet hot path does not
// allocate a closure per delivery. fn is bound to run once at creation.
type delivery struct {
	nw      *Network
	dst     *port
	b       []byte
	m       *mbuf.Mbuf
	corrupt bool
	fn      func()
}

// newDelivery takes a delivery from the free list (or builds one) and fills
// it for the packet at hand.
//
//lrp:hotpath
func (nw *Network) newDelivery(dst *port, b []byte, m *mbuf.Mbuf, corrupt bool) *delivery {
	var d *delivery
	if n := len(nw.freeDeliv); n > 0 {
		d = nw.freeDeliv[n-1]
		nw.freeDeliv = nw.freeDeliv[:n-1]
	} else {
		d = &delivery{nw: nw} //lrp:coldalloc free-list miss; steady state pops the list
		d.fn = d.run
	}
	d.dst, d.b, d.m, d.corrupt = dst, b, m, corrupt
	return d
}

// run completes the delivery: hand the wire bytes to the receiving NIC and
// release the wire reference. The delivery object is recycled first (into
// locals), because Rx can synchronously trigger further deliveries —
// forwarding, protocol replies — that must be free to reuse it.
//
//lrp:hotpath
func (d *delivery) run() {
	nw, dst, b, m := d.nw, d.dst, d.b, d.m
	corrupt := d.corrupt
	// Clear the packet references so the free list does not pin the last
	// delivery's wire bytes and mbuf until the slot is reused.
	d.dst, d.b, d.m = nil, nil, nil
	if corrupt {
		b = nw.corruptCopy(b)
	}
	nw.freeDeliv = append(nw.freeDeliv, d) //lrp:coldalloc free list grows to the in-flight high-water, then stabilizes
	dst.nic.Rx(b)
	m.EndTransfer()
}

// New creates an empty network.
func New(eng *sim.Engine) *Network {
	return &Network{
		Eng:           eng,
		FrameOverhead: DefaultFrameOverhead,
		ports:         make(map[pkt.Addr]*port),
	}
}

// Attach connects n to the network at addr with the given link bandwidth
// (bits per second) and one-way propagation delay (µs). It installs the
// NIC's Transmit hook.
func (nw *Network) Attach(n *nic.NIC, addr pkt.Addr, bandwidthBps int64, propDelay int64) {
	if _, dup := nw.ports[addr]; dup {
		panic(fmt.Sprintf("netsim: duplicate attachment for %v", addr))
	}
	p := &port{
		nw:           nw,
		nic:          n,
		addr:         addr,
		bwBytesPerUs: float64(bandwidthBps) / 8 / 1e6,
		propDelay:    propDelay,
	}
	p.txFn = p.txComplete
	nw.ports[addr] = p
	nw.order = append(nw.order, p)
	nw.routesChanged()
	n.Transmit = p.transmit
}

// transmit is the NIC's Transmit hook: it puts m on the wire for its
// serialization time, parking m and done in the port's transmit slot.
//
//lrp:hotpath
func (p *port) transmit(m *mbuf.Mbuf, done func()) {
	if p.txM != nil {
		panic("netsim: " + p.nic.Name + " started a transmit with one still on the wire")
	}
	p.txM, p.txDone = m, done
	p.nw.Eng.After(p.nw.serializationTime(p, m.Len()), p.txFn)
}

// txComplete fires when the packet has left the wire. It empties the slot
// before calling done, which may start the NIC's next transmit and refill
// it, and then routes the packet.
//
//lrp:hotpath
func (p *port) txComplete() {
	m, done := p.txM, p.txDone
	p.txM, p.txDone = nil, nil
	done()
	p.nw.route(p, m.Data, m, p.propDelay)
}

// Stats returns a snapshot of network counters.
func (nw *Network) Stats() Stats { return nw.stats }

// serializationTime returns the wire time for a packet of size bytes on
// port p (µs, minimum 1).
func (nw *Network) serializationTime(p *port, size int) int64 {
	if p.bwBytesPerUs <= 0 {
		return 1
	}
	t := int64(float64(size+nw.FrameOverhead) / p.bwBytesPerUs)
	if t < 1 {
		t = 1
	}
	return t
}

// route looks up the destination IP and schedules delivery. from, when
// non-nil, is the attachment the packet left through: its per-port
// next-hop routes are consulted first and take precedence over direct
// attachment (a point-to-point uplink forwards everything to its
// gateway, even traffic for hosts that happen to share the fabric).
// m, when non-nil, is the in-transfer mbuf whose storage backs b; route
// owns one wire reference to it and releases it on every non-delivery
// path.
func (nw *Network) route(from *port, b []byte, m *mbuf.Mbuf, propDelay int64) {
	ih, _, err := pkt.DecodeIPv4(b)
	if err != nil {
		nw.stats.NoRoute++
		m.EndTransfer()
		return
	}
	if ih.Dst.IsMulticast() {
		// LAN multicast: every attached host except the sender receives a
		// copy (in deterministic attachment order). Each delivery consumes
		// one wire reference on the shared storage.
		first := true
		for _, p := range nw.order {
			if p.addr == ih.Src {
				continue
			}
			if !first && m != nil {
				m.AddRef()
			}
			first = false
			nw.deliverTo(p, b, m, propDelay)
		}
		if first {
			m.EndTransfer() // no receivers
		}
		return
	}
	rcDst, rcVia := &nw.rcDst, &nw.rcVia
	if from != nil {
		rcDst, rcVia = &from.rcDst, &from.rcVia
	}
	if hop := *rcVia; hop != nil && *rcDst == ih.Dst {
		nw.deliverTo(hop, b, m, propDelay)
		return
	}
	if from != nil && from.routes != nil {
		if via, ok := from.routes[ih.Dst]; ok {
			if hop, hok := nw.ports[via]; hok {
				*rcDst, *rcVia = ih.Dst, hop
				nw.deliverTo(hop, b, m, propDelay)
				return
			}
			nw.stats.NoRoute++
			m.EndTransfer()
			return
		}
	}
	dst, ok := nw.ports[ih.Dst]
	if !ok {
		nw.stats.NoRoute++
		m.EndTransfer()
		return
	}
	*rcDst, *rcVia = ih.Dst, dst
	nw.deliverTo(dst, b, m, propDelay)
}

// deliverTo schedules delivery of b into one attached host, serialized at
// the receiver's link rate: back-to-back packets arrive no faster than
// the destination link can carry them. It consumes one wire reference on m:
// the receiving NIC copies the packet in Rx, after which the storage is
// released for recycling.
//
// Fault pipelines (network-wide, then per-port) are consulted once per
// delivery. A fault delay is added after link serialization and does not
// extend rxFreeAt: the held packet is "in flight" longer while the link
// stays free, so later packets genuinely overtake it (reordering).
func (nw *Network) deliverTo(dst *port, b []byte, m *mbuf.Mbuf, propDelay int64) {
	var v fault.Verdict
	if nw.faults != nil {
		v = nw.faults.Apply(nw.Eng.Now())
	}
	if dst.faults != nil {
		v.Merge(dst.faults.Apply(nw.Eng.Now()))
	}
	if v.Drop {
		nw.stats.Lost++
		m.EndTransfer()
		return
	}
	now := nw.Eng.Now()
	arrive := now + propDelay
	rxTime := nw.serializationTime(dst, len(b))
	if arrive < dst.rxFreeAt {
		arrive = dst.rxFreeAt
	}
	dst.rxFreeAt = arrive + rxTime
	deliver := arrive + rxTime + sim.Time(v.ExtraDelayUs)
	nw.stats.Delivered++
	corrupt := v.Corrupt
	if corrupt {
		nw.stats.Corrupted++
	}
	nw.Eng.At(deliver, nw.newDelivery(dst, b, m, corrupt).fn)
	if v.Duplicate {
		// The copy rides its own wire reference on the shared storage and
		// receives the same corruption treatment as the original.
		if m != nil {
			m.AddRef()
		}
		nw.stats.Delivered++
		nw.Eng.At(deliver+sim.Time(v.DupDelayUs), nw.newDelivery(dst, b, m, corrupt).fn)
	}
}

// corruptCopy returns the wire bytes with a payload byte flipped, in the
// network's scratch buffer. The original storage is never touched: it
// may back other deliveries (multicast, duplicates) or belong to a
// generator that reuses it.
func (nw *Network) corruptCopy(b []byte) []byte {
	if cap(nw.scratch) < len(b) {
		nw.scratch = make([]byte, len(b)) //lrp:coldalloc grows to the largest corrupted packet, then stabilizes
	}
	s := nw.scratch[:len(b)]
	copy(s, b)
	pkt.CorruptInPlace(s)
	return s
}

// SetFaults installs (or, with nil, clears) a network-wide fault
// pipeline applied to every delivery. The caller keeps the *fault.Pipeline
// handle for stats and tracing.
func (nw *Network) SetFaults(p *fault.Pipeline) { nw.faults = p }

// SetPortFaults installs (or, with nil, clears) a fault pipeline applied
// only to traffic delivered to the host attached at addr, composing with
// any network-wide pipeline.
func (nw *Network) SetPortFaults(addr pkt.Addr, p *fault.Pipeline) error {
	prt, ok := nw.ports[addr]
	if !ok {
		return fmt.Errorf("netsim: no attachment at %v", addr)
	}
	prt.faults = p
	return nil
}

// routesChanged invalidates every cached routing decision. Called whenever
// the topology gains an attachment or a route, so caches only ever serve
// decisions the current topology would repeat.
func (nw *Network) routesChanged() {
	nw.rcVia = nil
	nw.injPort = nil
	for _, p := range nw.order {
		p.rcVia = nil
	}
}

// AddRouteFrom installs a next-hop route on the attachment at from:
// traffic leaving that port for dst is delivered to the attached host at
// via (which must forward it onward). Per-port routes take precedence
// over direct attachment, so a chain A -> G1 -> G2 -> B is expressed as
// a route toward B on each upstream port even though B shares the
// fabric. Both from and via must already be attached.
func (nw *Network) AddRouteFrom(from, dst, via pkt.Addr) error {
	p, ok := nw.ports[from]
	if !ok {
		return fmt.Errorf("netsim: no attachment at %v to route from", from)
	}
	if _, ok := nw.ports[via]; !ok {
		return fmt.Errorf("netsim: next hop %v for %v is not attached", via, dst)
	}
	if p.routes == nil {
		p.routes = make(map[pkt.Addr]pkt.Addr)
	}
	p.routes[dst] = via
	nw.routesChanged()
	return nil
}

// NextHopFrom reports where a packet for dst leaving the attachment at
// from would be delivered: the per-port next hop, else the direct
// attachment. ok is false when the packet would be dropped with NoRoute.
// Topology builders use it to validate reachability without sending
// traffic.
func (nw *Network) NextHopFrom(from, dst pkt.Addr) (pkt.Addr, bool) {
	if p, ok := nw.ports[from]; ok && p.routes != nil {
		if via, ok := p.routes[dst]; ok {
			_, attached := nw.ports[via]
			return via, attached
		}
	}
	if _, ok := nw.ports[dst]; ok {
		return dst, true
	}
	return pkt.Addr{}, false
}

// Inject places a raw packet on the wire toward its IP destination, as if
// sent by an infinitely fast host. Traffic generators for overload
// experiments use this; it bypasses any sender-side kernel entirely (the
// paper used an in-kernel packet source for the same reason).
func (nw *Network) Inject(b []byte) {
	nw.stats.Injected++
	nw.route(nil, b, nil, 0)
}

// InjectMbuf injects a packet built in pool-owned mbuf storage. The mbuf's
// accounting is released immediately (the generator's pool slot frees at
// injection, like a sender NIC's does at transmit start) and its storage
// recycles to the generator's pool once the last receiver has taken a copy.
// Generators use this with a private pool to send without per-packet
// allocation.
func (nw *Network) InjectMbuf(m *mbuf.Mbuf) {
	m.BeginTransfer()
	nw.stats.Injected++
	nw.route(nil, m.Data, m, 0)
}

// InjectMbufFrom is InjectMbuf as if transmitted by the host attached at
// from: the packet observes that port's next-hop routes and propagation
// delay, so an aggregated generator co-located with an edge host sends
// into the topology the way the host itself would (minus sender-side
// kernel work and link serialization, like every injector).
//
//lrp:hotpath
func (nw *Network) InjectMbufFrom(from pkt.Addr, m *mbuf.Mbuf) {
	p := nw.injPort
	if p == nil || nw.injFrom != from {
		p = nw.ports[from]
		if p != nil {
			nw.injFrom, nw.injPort = from, p
		}
	}
	m.BeginTransfer()
	nw.stats.Injected++
	if p == nil {
		nw.route(nil, m.Data, m, 0)
		return
	}
	nw.route(p, m.Data, m, p.propDelay)
}

// InjectFrom is Inject observing the attachment at from, as InjectMbufFrom.
func (nw *Network) InjectFrom(from pkt.Addr, b []byte) {
	nw.stats.Injected++
	if p := nw.ports[from]; p != nil {
		nw.route(p, b, nil, p.propDelay)
		return
	}
	nw.route(nil, b, nil, 0)
}

// LookupNIC returns the NIC attached at addr, if any.
func (nw *Network) LookupNIC(addr pkt.Addr) (*nic.NIC, bool) {
	p, ok := nw.ports[addr]
	if !ok {
		return nil, false
	}
	return p.nic, true
}
