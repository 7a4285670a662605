// Package pkt defines the wire formats used by the simulated network:
// IPv4, UDP and TCP headers with real binary encoding and Internet
// checksums.
//
// The LRP demultiplexing function and the protocol implementations parse
// these bytes exactly as a kernel would, so header corruption, fragment
// handling and checksum failures exercise the same code paths the paper
// discusses (e.g. "a flood of corrupted data packets can still cause
// livelock" in an early-demux-only system).
package pkt

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Addr is an IPv4 address.
type Addr [4]byte

// IP builds an Addr from four octets, mirroring the dotted-quad notation.
func IP(a, b, c, d byte) Addr { return Addr{a, b, c, d} }

// String renders the address in dotted-quad form.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// IsZero reports whether the address is the unspecified address 0.0.0.0.
func (a Addr) IsZero() bool { return a == Addr{} }

// IsMulticast reports whether the address is in the class-D multicast range
// 224.0.0.0/4.
func (a Addr) IsMulticast() bool { return a[0]&0xf0 == 0xe0 }

// IP protocol numbers (the subset the stack implements).
const (
	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoUDP  = 17
)

// Header sizes in bytes. Options are not used by this stack except the TCP
// MSS option, so the sizes are fixed.
const (
	IPv4HeaderLen = 20
	UDPHeaderLen  = 8
	TCPHeaderLen  = 20
	TCPMSSOptLen  = 4
)

// IPv4 fragmentation flag bits within the flags/fragment-offset field.
const (
	FlagDontFragment = 0x4000
	FlagMoreFrags    = 0x2000
	fragOffMask      = 0x1fff
)

var (
	// ErrTruncated reports a buffer too short for the claimed header.
	ErrTruncated = errors.New("pkt: truncated packet")
	// ErrBadChecksum reports a checksum validation failure.
	ErrBadChecksum = errors.New("pkt: bad checksum")
	// ErrBadVersion reports a non-IPv4 version nibble.
	ErrBadVersion = errors.New("pkt: bad IP version")
	// ErrBadHeaderLen reports an IHL outside [5, buffer].
	ErrBadHeaderLen = errors.New("pkt: bad IP header length")
)

// IPv4Header is a decoded IPv4 header. The stack never emits IP options, so
// HeaderLen is always 20 on output, but input parsing honours the IHL field.
type IPv4Header struct {
	TOS      byte
	TotalLen uint16
	ID       uint16
	Flags    uint16 // FlagDontFragment | FlagMoreFrags
	FragOff  uint16 // in 8-byte units
	TTL      byte
	Proto    byte
	Src      Addr
	Dst      Addr
}

// MoreFragments reports whether the MF bit is set.
func (h *IPv4Header) MoreFragments() bool { return h.Flags&FlagMoreFrags != 0 }

// IsFragment reports whether the packet is any fragment of a larger datagram
// (nonzero offset or MF set).
func (h *IPv4Header) IsFragment() bool {
	return h.FragOff != 0 || h.MoreFragments()
}

// PayloadLen returns the length in bytes of the transport payload carried by
// a packet with this header.
func (h *IPv4Header) PayloadLen() int { return int(h.TotalLen) - IPv4HeaderLen }

// EncodeIPv4 writes a 20-byte IPv4 header (with checksum) into b, which must
// be at least IPv4HeaderLen bytes.
func EncodeIPv4(b []byte, h *IPv4Header) {
	_ = b[IPv4HeaderLen-1]
	b[0] = 0x45 // version 4, IHL 5
	b[1] = h.TOS
	binary.BigEndian.PutUint16(b[2:], h.TotalLen)
	binary.BigEndian.PutUint16(b[4:], h.ID)
	binary.BigEndian.PutUint16(b[6:], h.Flags|(h.FragOff&fragOffMask))
	b[8] = h.TTL
	b[9] = h.Proto
	b[10], b[11] = 0, 0
	copy(b[12:16], h.Src[:])
	copy(b[16:20], h.Dst[:])
	binary.BigEndian.PutUint16(b[10:], Checksum(b[:IPv4HeaderLen]))
}

// DecodeIPv4 parses and validates an IPv4 header from b. It returns the
// header and the header length in bytes.
func DecodeIPv4(b []byte) (IPv4Header, int, error) {
	var h IPv4Header
	if len(b) < IPv4HeaderLen {
		return h, 0, ErrTruncated
	}
	if b[0]>>4 != 4 {
		return h, 0, ErrBadVersion
	}
	hlen := int(b[0]&0x0f) * 4
	if hlen < IPv4HeaderLen || hlen > len(b) {
		return h, 0, ErrBadHeaderLen
	}
	if Checksum(b[:hlen]) != 0 {
		return h, 0, ErrBadChecksum
	}
	h.TOS = b[1]
	h.TotalLen = binary.BigEndian.Uint16(b[2:])
	if int(h.TotalLen) < hlen || int(h.TotalLen) > len(b) {
		return h, 0, ErrTruncated
	}
	h.ID = binary.BigEndian.Uint16(b[4:])
	ff := binary.BigEndian.Uint16(b[6:])
	h.Flags = ff &^ fragOffMask
	h.FragOff = ff & fragOffMask
	h.TTL = b[8]
	h.Proto = b[9]
	copy(h.Src[:], b[12:16])
	copy(h.Dst[:], b[16:20])
	return h, hlen, nil
}

// UDPHeader is a decoded UDP header.
type UDPHeader struct {
	SrcPort uint16
	DstPort uint16
	Length  uint16 // header + payload
}

// EncodeUDP writes the UDP header and computes the checksum over the pseudo
// header, UDP header, and payload (which must already follow the header in
// b). If checksum is false the checksum field is zero (checksumming
// disabled, as in the paper's UDP throughput test).
func EncodeUDP(b []byte, h *UDPHeader, src, dst Addr, checksum bool) {
	_ = b[UDPHeaderLen-1]
	binary.BigEndian.PutUint16(b[0:], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:], h.DstPort)
	binary.BigEndian.PutUint16(b[4:], h.Length)
	b[6], b[7] = 0, 0
	if checksum {
		ck := pseudoChecksum(src, dst, ProtoUDP, b[:h.Length])
		if ck == 0 {
			ck = 0xffff // 0 means "no checksum" on the wire
		}
		binary.BigEndian.PutUint16(b[6:], ck)
	}
}

// DecodeUDP parses a UDP header and validates its checksum (when present)
// against the payload in b.
func DecodeUDP(b []byte, src, dst Addr) (UDPHeader, error) {
	var h UDPHeader
	if len(b) < UDPHeaderLen {
		return h, ErrTruncated
	}
	h.SrcPort = binary.BigEndian.Uint16(b[0:])
	h.DstPort = binary.BigEndian.Uint16(b[2:])
	h.Length = binary.BigEndian.Uint16(b[4:])
	if int(h.Length) < UDPHeaderLen || int(h.Length) > len(b) {
		return h, ErrTruncated
	}
	if binary.BigEndian.Uint16(b[6:]) != 0 {
		if pseudoChecksum(src, dst, ProtoUDP, b[:h.Length]) != 0 {
			return h, ErrBadChecksum
		}
	}
	return h, nil
}

// TCP flag bits.
const (
	TCPFin = 1 << iota
	TCPSyn
	TCPRst
	TCPPsh
	TCPAck
	TCPUrg
)

// TCPFlagString renders flags like "SYN|ACK" for logs and tests.
func TCPFlagString(f byte) string {
	names := []struct {
		bit  byte
		name string
	}{
		{TCPFin, "FIN"}, {TCPSyn, "SYN"}, {TCPRst, "RST"},
		{TCPPsh, "PSH"}, {TCPAck, "ACK"}, {TCPUrg, "URG"},
	}
	out := ""
	for _, n := range names {
		if f&n.bit != 0 {
			if out != "" {
				out += "|"
			}
			out += n.name
		}
	}
	if out == "" {
		out = "none"
	}
	return out
}

// TCPHeader is a decoded TCP header. MSS is the only option the stack uses;
// MSS == 0 means the option was absent.
type TCPHeader struct {
	SrcPort uint16
	DstPort uint16
	Seq     uint32
	Ack     uint32
	Flags   byte
	Window  uint16
	MSS     uint16 // 0 if no MSS option present
}

// HeaderLen returns the encoded length of the header including options.
func (h *TCPHeader) HeaderLen() int {
	if h.MSS != 0 {
		return TCPHeaderLen + TCPMSSOptLen
	}
	return TCPHeaderLen
}

// EncodeTCP writes the TCP header (and MSS option if set) and computes the
// checksum over the pseudo header plus the segment, which must occupy
// b[:segLen] with the payload already in place after the header.
func EncodeTCP(b []byte, h *TCPHeader, src, dst Addr, segLen int) {
	hlen := h.HeaderLen()
	_ = b[hlen-1]
	binary.BigEndian.PutUint16(b[0:], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:], h.DstPort)
	binary.BigEndian.PutUint32(b[4:], h.Seq)
	binary.BigEndian.PutUint32(b[8:], h.Ack)
	b[12] = byte(hlen/4) << 4
	b[13] = h.Flags
	binary.BigEndian.PutUint16(b[14:], h.Window)
	b[16], b[17] = 0, 0 // checksum
	b[18], b[19] = 0, 0 // urgent pointer (unused)
	if h.MSS != 0 {
		b[20] = 2 // kind: MSS
		b[21] = 4 // length
		binary.BigEndian.PutUint16(b[22:], h.MSS)
	}
	binary.BigEndian.PutUint16(b[16:], pseudoChecksum(src, dst, ProtoTCP, b[:segLen]))
}

// DecodeTCP parses a TCP header from b (the full segment) and validates the
// checksum. It returns the header and the data offset in bytes.
func DecodeTCP(b []byte, src, dst Addr) (TCPHeader, int, error) {
	var h TCPHeader
	if len(b) < TCPHeaderLen {
		return h, 0, ErrTruncated
	}
	off := int(b[12]>>4) * 4
	if off < TCPHeaderLen || off > len(b) {
		return h, 0, ErrBadHeaderLen
	}
	if pseudoChecksum(src, dst, ProtoTCP, b) != 0 {
		return h, 0, ErrBadChecksum
	}
	h.SrcPort = binary.BigEndian.Uint16(b[0:])
	h.DstPort = binary.BigEndian.Uint16(b[2:])
	h.Seq = binary.BigEndian.Uint32(b[4:])
	h.Ack = binary.BigEndian.Uint32(b[8:])
	h.Flags = b[13]
	h.Window = binary.BigEndian.Uint16(b[14:])
	// Scan options for MSS.
	opts := b[TCPHeaderLen:off]
	for len(opts) > 0 {
		switch opts[0] {
		case 0: // end of options
			opts = nil
		case 1: // NOP
			opts = opts[1:]
		default:
			if len(opts) < 2 || int(opts[1]) < 2 || int(opts[1]) > len(opts) {
				opts = nil
				break
			}
			if opts[0] == 2 && opts[1] == 4 {
				h.MSS = binary.BigEndian.Uint16(opts[2:])
			}
			opts = opts[opts[1]:]
		}
	}
	return h, off, nil
}

// Checksum computes the 16-bit one's-complement Internet checksum of b.
// A buffer containing a correct embedded checksum sums to zero.
func Checksum(b []byte) uint16 {
	return fold(sum(0, b))
}

// pseudoChecksum computes the transport checksum including the IPv4 pseudo
// header (src, dst, zero, proto, length).
func pseudoChecksum(src, dst Addr, proto byte, seg []byte) uint16 {
	ph := uint64(binary.BigEndian.Uint32(src[:])) + uint64(binary.BigEndian.Uint32(dst[:])) +
		uint64(proto) + uint64(uint16(len(seg)))
	return fold(sum(ph, seg))
}

// sum adds b to the accumulator acc, eight bytes per step, and the tail
// one 16-bit word at a time (RFC 1071). A step adds its word's two 32-bit
// halves, so the carries pile up in the high bits instead of wrapping,
// for any buffer under 16 GB. The 16-bit sum is the folded accumulator:
// 2^16 is 1 modulo 0xffff, so a wider word counts as the sum of its
// 16-bit halves.
func sum(acc uint64, b []byte) uint64 {
	for len(b) >= 8 {
		w := binary.BigEndian.Uint64(b)
		acc += w>>32 + w&0xffffffff
		b = b[8:]
	}
	for len(b) >= 2 {
		acc += uint64(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		acc += uint64(b[0]) << 8
	}
	return acc
}

// fold reduces a one's-complement accumulator to 16 bits and complements
// it. The accumulator is zero only when every word summed was zero, which
// then folds to 0xffff, as a word-by-word sum does.
func fold(acc uint64) uint16 {
	for acc>>16 != 0 {
		acc = acc>>16 + acc&0xffff
	}
	return ^uint16(acc)
}
