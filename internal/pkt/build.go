package pkt

// This file provides whole-packet builders. The protocol implementations
// use them on the transmit side; traffic generators use them to synthesize
// wire traffic (including deliberately malformed traffic for the overload
// experiments).
//
// The Append variants write into a caller-supplied buffer so a sender can
// build packets in recycled mbuf storage; the slice-returning builders are
// thin wrappers that allocate a fresh exact-size buffer, preserving their
// original output byte for byte.

// zeroPayload backs Zeros. It must stay all-zero: the append builders
// copy from it, never into it.
var zeroPayload = make([]byte, 64*1024)

// Zeros returns an all-zero payload of length n for a traffic generator
// to copy into a packet: a shared read-only slice up to 64 KB, a fresh
// one beyond. The caller must not write to it.
func Zeros(n int) []byte {
	if n <= len(zeroPayload) {
		return zeroPayload[:n]
	}
	return make([]byte, n)
}

// UDPTotalLen returns the on-wire length of a UDP packet with the given
// payload size — the capacity a caller should reserve before AppendUDP.
func UDPTotalLen(payloadLen int) int {
	return IPv4HeaderLen + UDPHeaderLen + payloadLen
}

// TCPTotalLen returns the on-wire length of a TCP segment with the given
// header (options included) and payload size.
func TCPTotalLen(h *TCPHeader, payloadLen int) int {
	return IPv4HeaderLen + h.HeaderLen() + payloadLen
}

// AppendUDP appends a complete IPv4/UDP packet to dst and returns the
// extended slice. If checksum is false the UDP checksum is left zero (the
// paper's UDP throughput tests ran with UDP checksumming disabled). When
// cap(dst) >= len(dst)+UDPTotalLen(len(payload)) the build allocates
// nothing.
//
//lrp:hotpath
func AppendUDP(dst []byte, src, dstAddr Addr, sport, dport uint16, id uint16, ttl byte, payload []byte, checksum bool) []byte {
	total := UDPTotalLen(len(payload))
	start := len(dst)
	dst = append(dst, make([]byte, total)...)
	b := dst[start:]
	ih := IPv4Header{
		TotalLen: uint16(total),
		ID:       id,
		TTL:      ttl,
		Proto:    ProtoUDP,
		Src:      src,
		Dst:      dstAddr,
	}
	uh := UDPHeader{
		SrcPort: sport,
		DstPort: dport,
		Length:  uint16(UDPHeaderLen + len(payload)),
	}
	copy(b[IPv4HeaderLen+UDPHeaderLen:], payload)
	EncodeUDP(b[IPv4HeaderLen:], &uh, src, dstAddr, checksum)
	EncodeIPv4(b, &ih)
	return dst
}

// AppendTCP appends a complete IPv4/TCP segment to dst and returns the
// extended slice. When cap(dst) >= len(dst)+TCPTotalLen(h, len(payload))
// the build allocates nothing.
//
//lrp:hotpath
func AppendTCP(dst []byte, src, dstAddr Addr, h *TCPHeader, id uint16, ttl byte, payload []byte) []byte {
	hlen := h.HeaderLen()
	segLen := hlen + len(payload)
	total := IPv4HeaderLen + segLen
	start := len(dst)
	dst = append(dst, make([]byte, total)...)
	b := dst[start:]
	ih := IPv4Header{
		TotalLen: uint16(total),
		ID:       id,
		TTL:      ttl,
		Proto:    ProtoTCP,
		Src:      src,
		Dst:      dstAddr,
	}
	copy(b[IPv4HeaderLen+hlen:], payload)
	EncodeTCP(b[IPv4HeaderLen:], h, src, dstAddr, segLen)
	EncodeIPv4(b, &ih)
	return dst
}

// UDPPacket assembles a complete IPv4/UDP packet in a fresh buffer.
func UDPPacket(src, dst Addr, sport, dport uint16, id uint16, ttl byte, payload []byte, checksum bool) []byte {
	b := make([]byte, 0, UDPTotalLen(len(payload)))
	return AppendUDP(b, src, dst, sport, dport, id, ttl, payload, checksum)
}

// TCPSegment assembles a complete IPv4/TCP segment in a fresh buffer.
func TCPSegment(src, dst Addr, h *TCPHeader, id uint16, ttl byte, payload []byte) []byte {
	b := make([]byte, 0, TCPTotalLen(h, len(payload)))
	return AppendTCP(b, src, dst, h, id, ttl, payload)
}

// Corrupt returns a copy of p with one byte of the transport payload (or
// header, for short packets) flipped, leaving the IP header intact so the
// packet still reaches protocol input where its checksum fails. This models
// the paper's "corrupted data packets" overload source.
func Corrupt(p []byte) []byte {
	c := make([]byte, len(p))
	copy(c, p)
	if len(c) > IPv4HeaderLen {
		c[len(c)-1] ^= 0xff
	}
	return c
}

// CorruptInPlace flips the last byte of p (when it extends past the IP
// header), the in-buffer equivalent of Corrupt for pre-built packets in
// recycled storage.
func CorruptInPlace(p []byte) {
	if len(p) > IPv4HeaderLen {
		p[len(p)-1] ^= 0xff
	}
}
