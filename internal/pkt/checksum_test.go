package pkt

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// refChecksum is the Internet checksum one 16-bit word at a time, the
// reference the word-at-a-time Checksum must match bit for bit.
func refChecksum(b []byte) uint16 {
	return refFold(refSum(0, b))
}

// refPseudoChecksum is the reference transport checksum: the pseudo
// header as six 16-bit words, then the segment.
func refPseudoChecksum(src, dst Addr, proto byte, seg []byte) uint16 {
	var ph [12]byte
	copy(ph[0:4], src[:])
	copy(ph[4:8], dst[:])
	ph[9] = proto
	binary.BigEndian.PutUint16(ph[10:], uint16(len(seg)))
	return refFold(refSum(refSum(0, ph[:]), seg))
}

func refSum(sum uint32, b []byte) uint32 {
	for len(b) >= 2 {
		sum += uint32(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint32(b[0]) << 8
	}
	return sum
}

func refFold(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + sum>>16
	}
	return ^uint16(sum)
}

// TestChecksumMatchesReference compares Checksum and pseudoChecksum with
// the 16-bit reference for every length from 0 to 2048, at an even and
// an odd start, over random, all-zero and all-0xff bytes. The all-zero
// and all-0xff buffers pin the two encodings of a zero sum.
func TestChecksumMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, 2049)
	rng.Read(random)
	bufs := map[string][]byte{
		"random": random,
		"zero":   make([]byte, 2049),
		"ones":   bytes.Repeat([]byte{0xff}, 2049),
	}
	addrs := []Addr{{}, IP(10, 0, 0, 1), IP(255, 255, 255, 255)}
	for name, buf := range bufs {
		for n := 0; n <= 2048; n++ {
			for start := 0; start <= 1; start++ {
				b := buf[start : start+n]
				if got, want := Checksum(b), refChecksum(b); got != want {
					t.Fatalf("%s[%d:%d]: Checksum = %#04x, reference %#04x", name, start, start+n, got, want)
				}
				src, dst := addrs[n%3], addrs[(n/3)%3]
				proto := []byte{0, ProtoTCP, ProtoUDP, 0xff}[n%4]
				if got, want := pseudoChecksum(src, dst, proto, b), refPseudoChecksum(src, dst, proto, b); got != want {
					t.Fatalf("%s[%d:%d] from %v to %v, proto %d: pseudoChecksum = %#04x, reference %#04x",
						name, start, start+n, src, dst, proto, got, want)
				}
			}
		}
	}
}
