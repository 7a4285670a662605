package demux

import (
	"testing"

	"lrp/internal/pkt"
	"lrp/internal/race"
)

var (
	cli = pkt.IP(10, 0, 0, 1)
	srv = pkt.IP(10, 0, 0, 2)
)

func TestListenMatch(t *testing.T) {
	tb := NewTable[string]()
	tb.BindListen(pkt.ProtoUDP, pkt.Addr{}, 7, "echo")
	p := pkt.UDPPacket(cli, srv, 9999, 7, 1, 64, []byte("hi"), true)
	ep, v := tb.Classify(p, 0)
	if v != Match || ep != "echo" {
		t.Fatalf("got %v %q", v, ep)
	}
}

func TestSpecificAddrBeatsWildcard(t *testing.T) {
	tb := NewTable[string]()
	tb.BindListen(pkt.ProtoUDP, pkt.Addr{}, 7, "any")
	tb.BindListen(pkt.ProtoUDP, srv, 7, "specific")
	p := pkt.UDPPacket(cli, srv, 1, 7, 1, 64, nil, true)
	ep, v := tb.Classify(p, 0)
	if v != Match || ep != "specific" {
		t.Fatalf("got %v %q", v, ep)
	}
}

func TestConnectedBeatsListen(t *testing.T) {
	tb := NewTable[string]()
	tb.BindListen(pkt.ProtoTCP, pkt.Addr{}, 80, "listener")
	tb.BindConnected(pkt.ProtoTCP, srv, 80, cli, 5555, "conn")
	h := pkt.TCPHeader{SrcPort: 5555, DstPort: 80, Flags: pkt.TCPAck, Window: 100}
	p := pkt.TCPSegment(cli, srv, &h, 1, 64, nil)
	ep, v := tb.Classify(p, 0)
	if v != Match || ep != "conn" {
		t.Fatalf("got %v %q", v, ep)
	}
	// A different client port falls back to the listener.
	h.SrcPort = 5556
	p = pkt.TCPSegment(cli, srv, &h, 1, 64, nil)
	ep, v = tb.Classify(p, 0)
	if v != Match || ep != "listener" {
		t.Fatalf("got %v %q", v, ep)
	}
}

func TestNoMatch(t *testing.T) {
	tb := NewTable[string]()
	p := pkt.UDPPacket(cli, srv, 1, 12345, 1, 64, nil, true)
	if _, v := tb.Classify(p, 0); v != NoMatch {
		t.Fatalf("got %v", v)
	}
}

func TestMalformed(t *testing.T) {
	tb := NewTable[string]()
	if _, v := tb.Classify([]byte{1, 2, 3}, 0); v != Malformed {
		t.Fatalf("short packet: %v", v)
	}
	p := pkt.UDPPacket(cli, srv, 1, 7, 1, 64, nil, true)
	p[9] ^= 0xff // corrupt the IP header itself
	if _, v := tb.Classify(p, 0); v != Malformed {
		t.Fatalf("corrupt IP header: %v", v)
	}
}

func TestCorruptPayloadStillMatches(t *testing.T) {
	// The demux function must not validate transport checksums: corrupted
	// packets still demultiplex to their destination (and get discarded
	// later, at the receiver's expense under LRP).
	tb := NewTable[string]()
	tb.BindListen(pkt.ProtoUDP, pkt.Addr{}, 7, "echo")
	p := pkt.Corrupt(pkt.UDPPacket(cli, srv, 1, 7, 1, 64, []byte("payload"), true))
	ep, v := tb.Classify(p, 0)
	if v != Match || ep != "echo" {
		t.Fatalf("got %v %q", v, ep)
	}
}

func TestUnbind(t *testing.T) {
	tb := NewTable[string]()
	tb.BindListen(pkt.ProtoUDP, pkt.Addr{}, 7, "echo")
	tb.UnbindListen(pkt.ProtoUDP, pkt.Addr{}, 7)
	p := pkt.UDPPacket(cli, srv, 1, 7, 1, 64, nil, true)
	if _, v := tb.Classify(p, 0); v != NoMatch {
		t.Fatalf("got %v", v)
	}
	tb.BindConnected(pkt.ProtoTCP, srv, 80, cli, 5555, "c")
	tb.UnbindConnected(pkt.ProtoTCP, srv, 80, cli, 5555)
	h := pkt.TCPHeader{SrcPort: 5555, DstPort: 80, Flags: pkt.TCPAck}
	if _, v := tb.Classify(pkt.TCPSegment(cli, srv, &h, 1, 64, nil), 0); v != NoMatch {
		t.Fatalf("got %v", v)
	}
}

func TestProtoProxy(t *testing.T) {
	tb := NewTable[string]()
	tb.BindProto(pkt.ProtoICMP, "icmpd")
	// Build a minimal ICMP packet: IP header + 8 bytes.
	b := make([]byte, pkt.IPv4HeaderLen+8)
	ih := pkt.IPv4Header{TotalLen: uint16(len(b)), TTL: 64, Proto: pkt.ProtoICMP, Src: cli, Dst: srv}
	pkt.EncodeIPv4(b, &ih)
	ep, v := tb.Classify(b, 0)
	if v != OtherProto || ep != "icmpd" {
		t.Fatalf("got %v %q", v, ep)
	}
	tb.UnbindProto(pkt.ProtoICMP)
	if _, v := tb.Classify(b, 0); v != NoMatch {
		t.Fatalf("after unbind: %v", v)
	}
}

// buildFragments splits a UDP packet into two IP fragments.
func buildFragments(t *testing.T, payloadLen int) (first, second []byte) {
	t.Helper()
	payload := make([]byte, payloadLen)
	whole := pkt.UDPPacket(cli, srv, 1000, 7, 77, 64, payload, false)
	seg := whole[pkt.IPv4HeaderLen:]
	cut := 8 * ((len(seg) / 2) / 8) // fragment offsets are 8-byte units
	mk := func(data []byte, off int, more bool) []byte {
		b := make([]byte, pkt.IPv4HeaderLen+len(data))
		flags := uint16(0)
		if more {
			flags = pkt.FlagMoreFrags
		}
		ih := pkt.IPv4Header{
			TotalLen: uint16(len(b)), ID: 77, Flags: flags,
			FragOff: uint16(off / 8), TTL: 64, Proto: pkt.ProtoUDP,
			Src: cli, Dst: srv,
		}
		copy(b[pkt.IPv4HeaderLen:], data)
		pkt.EncodeIPv4(b, &ih)
		return b
	}
	return mk(seg[:cut], 0, true), mk(seg[cut:], cut, false)
}

func TestFragmentsInOrder(t *testing.T) {
	tb := NewTable[string]()
	tb.BindListen(pkt.ProtoUDP, pkt.Addr{}, 7, "echo")
	first, second := buildFragments(t, 2000)
	ep, v := tb.Classify(first, 0)
	if v != Match || ep != "echo" {
		t.Fatalf("first frag: %v %q", v, ep)
	}
	ep, v = tb.Classify(second, 10)
	if v != Match || ep != "echo" {
		t.Fatalf("second frag should hit the mapping: %v %q", v, ep)
	}
	if tb.FragHits != 1 {
		t.Fatalf("fraghits=%d", tb.FragHits)
	}
}

func TestFragmentsOutOfOrder(t *testing.T) {
	tb := NewTable[string]()
	tb.BindListen(pkt.ProtoUDP, pkt.Addr{}, 7, "echo")
	first, second := buildFragments(t, 2000)
	// Second fragment arrives first: no transport header -> FragMiss.
	if _, v := tb.Classify(second, 0); v != FragMiss {
		t.Fatalf("out-of-order frag: %v", v)
	}
	if _, v := tb.Classify(first, 1); v != Match {
		t.Fatalf("first frag: %v", v)
	}
	// Re-delivery of the trailing fragment now matches.
	if _, v := tb.Classify(second, 2); v != Match {
		t.Fatalf("retry frag: %v", v)
	}
}

func TestFragmentMappingExpires(t *testing.T) {
	tb := NewTable[string]()
	tb.BindListen(pkt.ProtoUDP, pkt.Addr{}, 7, "echo")
	first, second := buildFragments(t, 2000)
	tb.Classify(first, 0)
	if _, v := tb.Classify(second, fragTTL+1); v != FragMiss {
		t.Fatalf("expired mapping should miss: %v", v)
	}
}

func TestClassifyDoesNotAllocateOnFastPath(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	tb := NewTable[string]()
	tb.BindListen(pkt.ProtoUDP, pkt.Addr{}, 7, "echo")
	p := pkt.UDPPacket(cli, srv, 1, 7, 1, 64, []byte("x"), true)
	allocs := testing.AllocsPerRun(100, func() {
		tb.Classify(p, 0)
	})
	if allocs > 0 {
		t.Fatalf("fast-path classify allocates %.1f times per call", allocs)
	}
}

func BenchmarkClassifyUDP(b *testing.B) {
	tb := NewTable[int]()
	tb.BindListen(pkt.ProtoUDP, pkt.Addr{}, 7, 1)
	p := pkt.UDPPacket(cli, srv, 1, 7, 1, 64, make([]byte, 14), true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, v := tb.Classify(p, 0); v != Match {
			b.Fatal(v)
		}
	}
}

// Regression for the frag-purge rewrite: the purge used to range over the
// frags map, making the scan order (and thus any future tie-breaking
// behavior) nondeterministic. It now walks the insertion-order key list.
func TestFragPurgeScansInsertionOrder(t *testing.T) {
	tb := NewTable[int]()
	tb.BindListen(pkt.ProtoUDP, pkt.Addr{}, 99, 7)
	mkFrag := func(id uint16) []byte {
		b := pkt.UDPPacket(cli, srv, 5, 99, id, 64, make([]byte, 64), false)
		ih, _, _ := pkt.DecodeIPv4(b)
		ih.Flags |= pkt.FlagMoreFrags
		pkt.EncodeIPv4(b, &ih)
		return b
	}
	const live = 1500
	for id := 0; id < live; id++ {
		if _, v := tb.Classify(mkFrag(uint16(id)), 0); v != Match {
			t.Fatalf("first fragment %d: verdict %v", id, v)
		}
	}
	// The purge threshold (1024) was crossed, but nothing had expired.
	if len(tb.frags) != live || tb.fragOrder.Len() != live {
		t.Fatalf("frags=%d order=%d, want %d live mappings", len(tb.frags), tb.fragOrder.Len(), live)
	}
	// One insert past the TTL expires every earlier mapping in one pass;
	// only the new mapping survives, and the order list shrinks with it.
	if _, v := tb.Classify(mkFrag(9999), fragTTL+1); v != Match {
		t.Fatalf("late first fragment: verdict %v", v)
	}
	if len(tb.frags) != 1 || tb.fragOrder.Len() != 1 {
		t.Fatalf("after purge: frags=%d order=%d, want 1", len(tb.frags), tb.fragOrder.Len())
	}
	// The surviving mapping still resolves non-first fragments...
	late := mkFrag(9999)
	ih, _, _ := pkt.DecodeIPv4(late)
	ih.FragOff = 64 / 8
	pkt.EncodeIPv4(late, &ih)
	if _, v := tb.Classify(late, fragTTL+2); v != Match {
		t.Fatalf("surviving mapping: verdict %v", v)
	}
	// ...and a purged one misses.
	old := mkFrag(3)
	ih, _, _ = pkt.DecodeIPv4(old)
	ih.FragOff = 64 / 8
	pkt.EncodeIPv4(old, &ih)
	if _, v := tb.Classify(old, fragTTL+2); v != FragMiss {
		t.Fatalf("purged mapping: verdict %v, want FragMiss", v)
	}
}

// TestFragPurgeKeepsInsertionOrder expires the older part of a mapping
// population: the purge pass drops exactly the expired keys, and the
// survivors keep their insertion order.
func TestFragPurgeKeepsInsertionOrder(t *testing.T) {
	tb := NewTable[int]()
	tb.BindListen(pkt.ProtoUDP, pkt.Addr{}, 99, 7)
	mkFrag := func(id uint16) []byte {
		b := pkt.UDPPacket(cli, srv, 5, 99, id, 64, make([]byte, 64), false)
		ih, _, _ := pkt.DecodeIPv4(b)
		ih.Flags |= pkt.FlagMoreFrags
		pkt.EncodeIPv4(b, &ih)
		return b
	}
	const old, young = 1100, 100
	for id := 0; id < old; id++ {
		tb.Classify(mkFrag(uint16(id)), 0)
	}
	for id := old; id < old+young; id++ {
		tb.Classify(mkFrag(uint16(id)), 2)
	}
	// The next insert purges every mapping made at time 0 and none made
	// at time 2.
	tb.Classify(mkFrag(old+young), fragTTL+1)
	if len(tb.frags) != young+1 || tb.fragOrder.Len() != young+1 {
		t.Fatalf("frags=%d order=%d, want %d", len(tb.frags), tb.fragOrder.Len(), young+1)
	}
	for i := 0; i <= young; i++ {
		k, _ := tb.fragOrder.Dequeue()
		if want := uint16(old + i); k.id != want {
			t.Fatalf("fragOrder[%d].id = %d, want %d (insertion order broken)", i, k.id, want)
		}
	}
}
