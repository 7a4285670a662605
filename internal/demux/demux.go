// Package demux implements LRP's self-contained packet demultiplexing
// function: it maps a raw packet to the endpoint (NI channel) that should
// receive it.
//
// Per the paper, the function "is self-contained, and has minimal
// requirements on its execution environment (non-blocking, no dynamic
// memory allocation, no timers)", so it can run either on a network
// interface's embedded processor (NI demux) or in the host device driver's
// interrupt handler (soft demux). It "can efficiently demultiplex all
// packets in the TCP/IP protocol family, including IP fragments": the
// fragment carrying the transport header establishes a mapping from the
// IP (src, dst, id) triple to the endpoint; fragments that arrive before
// that mapping exists go to a special fragment channel that the IP
// reassembler consults.
//
// The table is generic over the endpoint type so it can bind NI channels,
// sockets, or test doubles without import cycles.
package demux

import (
	"lrp/internal/fifo"
	"lrp/internal/pkt"
)

// Verdict classifies the outcome of a demultiplexing attempt.
type Verdict int

const (
	// Match: the packet maps to a bound endpoint.
	Match Verdict = iota
	// NoMatch: no endpoint is bound for the packet's destination.
	NoMatch
	// Malformed: the packet's IP header is unparseable; it carries no
	// usable destination.
	Malformed
	// FragMiss: the packet is an IP fragment whose transport header has
	// not been seen yet; it belongs on the special fragment channel.
	FragMiss
	// OtherProto: the packet belongs to a protocol without port-level
	// demultiplexing (e.g. ICMP); it maps to the protocol's proxy daemon
	// endpoint if one is bound, else NoMatch is returned instead.
	OtherProto
)

func (v Verdict) String() string {
	switch v {
	case Match:
		return "match"
	case NoMatch:
		return "nomatch"
	case Malformed:
		return "malformed"
	case FragMiss:
		return "fragmiss"
	case OtherProto:
		return "otherproto"
	}
	return "?"
}

// fiveTuple identifies a fully connected endpoint.
type fiveTuple struct {
	proto         byte
	local, remote pkt.Addr
	lport, rport  uint16
}

// listenKey identifies a bound-but-unconnected endpoint. A zero local
// address matches any destination address (INADDR_ANY).
type listenKey struct {
	proto byte
	local pkt.Addr
	lport uint16
}

// fragKey identifies an in-flight fragmented datagram.
type fragKey struct {
	src, dst pkt.Addr
	id       uint16
	proto    byte
}

type fragEntry[E any] struct {
	ep      E
	expires int64
}

// fragTTL is how long a fragment mapping stays valid, in microseconds.
const fragTTL = 30 * 1000 * 1000

// Table is the demultiplexing table. It is not safe for concurrent use;
// the simulation is single-threaded by construction.
type Table[E any] struct {
	exact  map[fiveTuple]E
	listen map[listenKey]E
	proto  map[byte]E // proxy endpoints for ICMP etc.
	frags  map[fragKey]fragEntry[E]

	// fragOrder lists frag keys in insertion order so the purge scan is
	// deterministic (sim-core code must not range over maps).
	fragOrder fifo.Queue[fragKey]

	// One-entry classification cache: server workloads hammer a handful of
	// flows, so the previous packet's 5-tuple usually repeats and the two
	// map probes (connected, then listen) can be skipped. Any bind or
	// unbind invalidates it, since a new exact binding must shadow a
	// cached listen match.
	cKey fiveTuple
	cEp  E
	cOK  bool

	// Stats
	Lookups    uint64
	FragHits   uint64
	FragMisses uint64
}

// invalidate clears the classification cache after a binding change.
func (t *Table[E]) invalidate() {
	var zero E
	t.cKey, t.cEp, t.cOK = fiveTuple{}, zero, false
}

// NewTable returns an empty table.
func NewTable[E any]() *Table[E] {
	return &Table[E]{
		exact:  make(map[fiveTuple]E),
		listen: make(map[listenKey]E),
		proto:  make(map[byte]E),
		frags:  make(map[fragKey]fragEntry[E]),
	}
}

// BindConnected installs an endpoint for a fully specified 5-tuple
// (connected TCP socket or connected UDP socket).
func (t *Table[E]) BindConnected(proto byte, local pkt.Addr, lport uint16, remote pkt.Addr, rport uint16, ep E) {
	t.exact[fiveTuple{proto, local, remote, lport, rport}] = ep
	t.invalidate()
}

// UnbindConnected removes a connected binding.
func (t *Table[E]) UnbindConnected(proto byte, local pkt.Addr, lport uint16, remote pkt.Addr, rport uint16) {
	delete(t.exact, fiveTuple{proto, local, remote, lport, rport})
	t.invalidate()
}

// BindListen installs an endpoint for a local (addr, port) pair; a zero
// addr matches any local address.
func (t *Table[E]) BindListen(proto byte, local pkt.Addr, lport uint16, ep E) {
	t.listen[listenKey{proto, local, lport}] = ep
	t.invalidate()
}

// UnbindListen removes a listening binding.
func (t *Table[E]) UnbindListen(proto byte, local pkt.Addr, lport uint16) {
	delete(t.listen, listenKey{proto, local, lport})
	t.invalidate()
}

// BindProto installs a proxy endpoint for a whole IP protocol (the LRP
// daemon channels for ICMP and similar traffic).
func (t *Table[E]) BindProto(proto byte, ep E) {
	t.proto[proto] = ep
}

// UnbindProto removes a protocol proxy binding.
func (t *Table[E]) UnbindProto(proto byte) {
	delete(t.proto, proto)
}

// LookupConnected returns the endpoint bound to the exact 5-tuple.
func (t *Table[E]) LookupConnected(proto byte, local pkt.Addr, lport uint16, remote pkt.Addr, rport uint16) (E, bool) {
	ep, ok := t.exact[fiveTuple{proto, local, remote, lport, rport}]
	return ep, ok
}

// LookupListen returns the endpoint bound to (proto, local, lport), trying
// the specific address before the wildcard.
func (t *Table[E]) LookupListen(proto byte, local pkt.Addr, lport uint16) (E, bool) {
	if ep, ok := t.listen[listenKey{proto, local, lport}]; ok {
		return ep, true
	}
	ep, ok := t.listen[listenKey{proto, pkt.Addr{}, lport}]
	return ep, ok
}

// Classify maps a raw packet to its endpoint. now is the current simulated
// time in microseconds (used only to age fragment mappings — the function
// itself sets no timers).
func (t *Table[E]) Classify(b []byte, now int64) (ep E, v Verdict) {
	t.Lookups++
	ih, hlen, err := pkt.DecodeIPv4(b)
	if err != nil {
		return ep, Malformed
	}
	if ih.IsFragment() {
		return t.classifyFragment(b, &ih, hlen, now)
	}
	return t.classifyTransport(b[hlen:], &ih)
}

// classifyTransport resolves a non-fragmented (or first-fragment) packet's
// transport header against the table.
func (t *Table[E]) classifyTransport(seg []byte, ih *pkt.IPv4Header) (ep E, v Verdict) {
	switch ih.Proto {
	case pkt.ProtoUDP, pkt.ProtoTCP:
		if len(seg) < 4 {
			return ep, Malformed
		}
		// Only the ports are needed; transport checksum validation is
		// protocol processing and deliberately NOT done here — the paper's
		// point is that corrupted packets must still be demultiplexed (and
		// charged) to their destination.
		sport := uint16(seg[0])<<8 | uint16(seg[1])
		dport := uint16(seg[2])<<8 | uint16(seg[3])
		key := fiveTuple{ih.Proto, ih.Dst, ih.Src, dport, sport}
		if t.cOK && t.cKey == key {
			return t.cEp, Match
		}
		if e, ok := t.LookupConnected(ih.Proto, ih.Dst, dport, ih.Src, sport); ok {
			t.cKey, t.cEp, t.cOK = key, e, true
			return e, Match
		}
		if e, ok := t.LookupListen(ih.Proto, ih.Dst, dport); ok {
			t.cKey, t.cEp, t.cOK = key, e, true
			return e, Match
		}
		return ep, NoMatch
	default:
		if e, ok := t.proto[ih.Proto]; ok {
			return e, OtherProto
		}
		return ep, NoMatch
	}
}

// classifyFragment handles IP fragments: a first fragment carries the
// transport header and establishes the mapping; later fragments use it.
func (t *Table[E]) classifyFragment(b []byte, ih *pkt.IPv4Header, hlen int, now int64) (ep E, v Verdict) {
	key := fragKey{ih.Src, ih.Dst, ih.ID, ih.Proto}
	if ih.FragOff == 0 {
		e, verdict := t.classifyTransport(b[hlen:], ih)
		if verdict == Match || verdict == OtherProto {
			if _, exists := t.frags[key]; !exists {
				t.fragOrder.Enqueue(key)
			}
			t.frags[key] = fragEntry[E]{ep: e, expires: now + fragTTL}
			t.maybePurgeFrags(now)
		}
		return e, verdict
	}
	if fe, ok := t.frags[key]; ok && fe.expires > now {
		t.FragHits++
		return fe.ep, Match
	}
	t.FragMisses++
	return ep, FragMiss
}

// maybePurgeFrags opportunistically drops expired fragment mappings so the
// map stays bounded without timers. It rotates fragOrder once rather than
// ranging over the map, so the work done is identical on every run, and
// the surviving keys keep their insertion order.
func (t *Table[E]) maybePurgeFrags(now int64) {
	if len(t.frags) < 1024 {
		return
	}
	for n := t.fragOrder.Len(); n > 0; n-- {
		k, _ := t.fragOrder.Dequeue()
		if t.frags[k].expires <= now {
			delete(t.frags, k)
			continue
		}
		t.fragOrder.Enqueue(k)
	}
}
