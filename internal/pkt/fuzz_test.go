package pkt

import (
	"errors"
	"testing"
)

// FuzzDecode hands arbitrary bytes to the decoders, the first code to
// touch wire input: none may panic, and each must report ErrBadChecksum
// exactly when the 16-bit reference sum says the bytes it checks are
// corrupt — DecodeIPv4 for a header that passes the version and
// header-length checks, DecodeTCP for a segment whose data offset fits.
// The seed corpus is in testdata/fuzz/FuzzDecode.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		ih, hlen, err := DecodeIPv4(b)
		if len(b) >= IPv4HeaderLen && b[0]>>4 == 4 {
			if n := int(b[0]&0x0f) * 4; n >= IPv4HeaderLen && n <= len(b) {
				if sum := refChecksum(b[:n]); (sum != 0) != errors.Is(err, ErrBadChecksum) {
					t.Fatalf("DecodeIPv4: %v, with a reference header sum of %#04x", err, sum)
				}
			}
		}
		src, dst, seg := srcAddr, dstAddr, b
		if err == nil {
			src, dst, seg = ih.Src, ih.Dst, b[hlen:ih.TotalLen]
		}
		_, _ = DecodeUDP(seg, src, dst)
		_, _, err = DecodeTCP(seg, src, dst)
		if len(seg) >= TCPHeaderLen {
			if off := int(seg[12]>>4) * 4; off >= TCPHeaderLen && off <= len(seg) {
				if sum := refPseudoChecksum(src, dst, ProtoTCP, seg); (sum != 0) != errors.Is(err, ErrBadChecksum) {
					t.Fatalf("DecodeTCP: %v, with a reference segment sum of %#04x", err, sum)
				}
			}
		}
	})
}
