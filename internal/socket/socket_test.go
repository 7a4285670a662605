package socket

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"lrp/internal/pkt"
)

func TestDgramQueueFIFO(t *testing.T) {
	q := NewDgramQueue(0)
	for i := 0; i < 10; i++ {
		if !q.Enqueue(Datagram{Data: []byte{byte(i)}}) {
			t.Fatal("unbounded enqueue failed")
		}
	}
	for i := 0; i < 10; i++ {
		d, ok := q.Dequeue()
		if !ok || d.Data[0] != byte(i) {
			t.Fatalf("dequeue %d: %v %v", i, ok, d)
		}
	}
	if _, ok := q.Dequeue(); ok {
		t.Fatal("empty dequeue succeeded")
	}
}

func TestDgramQueueLimit(t *testing.T) {
	q := NewDgramQueue(2)
	q.Enqueue(Datagram{})
	q.Enqueue(Datagram{})
	if !q.Full() {
		t.Fatal("queue should be full")
	}
	if q.Enqueue(Datagram{}) {
		t.Fatal("over-limit enqueue succeeded")
	}
	if q.Drops() != 1 {
		t.Fatalf("drops = %d", q.Drops())
	}
	q.Dequeue()
	if q.Full() {
		t.Fatal("queue should have space after dequeue")
	}
}

func TestStreamBufAppendRead(t *testing.T) {
	b := &StreamBuf{Limit: 10}
	if n := b.Append([]byte("hello")); n != 5 {
		t.Fatalf("append = %d", n)
	}
	if n := b.Append([]byte("world!!")); n != 5 {
		t.Fatalf("append should truncate to space: %d", n)
	}
	if b.Space() != 0 || b.Len() != 10 {
		t.Fatalf("space=%d len=%d", b.Space(), b.Len())
	}
	got := read(b, 7)
	if string(got) != "hellowo" {
		t.Fatalf("read %q", got)
	}
	if b.Base != 7 {
		t.Fatalf("base = %d", b.Base)
	}
	if string(read(b, 100)) != "rld" {
		t.Fatal("tail read wrong")
	}
}

// read removes up to n bytes from the front of b into a new slice.
func read(b *StreamBuf, n int) []byte {
	out := make([]byte, n)
	return out[:b.ReadInto(out)]
}

func TestStreamBufPeekDiscard(t *testing.T) {
	b := &StreamBuf{Limit: 0}
	b.Append([]byte("abcdefgh"))
	if got := b.Peek(2, 3); string(got) != "cde" {
		t.Fatalf("peek %q", got)
	}
	if got := b.Peek(6, 10); string(got) != "gh" {
		t.Fatalf("peek past end %q", got)
	}
	if got := b.Peek(100, 1); got != nil {
		t.Fatalf("peek beyond = %q", got)
	}
	b.Discard(3)
	if b.Len() != 5 || b.Base != 3 {
		t.Fatalf("len=%d base=%d", b.Len(), b.Base)
	}
	if got := b.Peek(0, 2); string(got) != "de" {
		t.Fatalf("peek after discard %q", got)
	}
	b.Discard(100) // over-discard clamps
	if b.Len() != 0 || b.Base != 8 {
		t.Fatalf("len=%d base=%d after full discard", b.Len(), b.Base)
	}
}

func TestStreamBufUnlimited(t *testing.T) {
	b := &StreamBuf{Limit: 0}
	big := bytes.Repeat([]byte{1}, 1<<20)
	if n := b.Append(big); n != len(big) {
		t.Fatalf("unlimited append = %d", n)
	}
	if b.Space() <= 0 {
		t.Fatal("unlimited buffer reports no space")
	}
}

// Property: any interleaving of appends/reads preserves byte order and
// Base accounting.
func TestStreamBufProperty(t *testing.T) {
	f := func(chunks [][]byte, reads []uint8) bool {
		b := &StreamBuf{Limit: 256}
		var model []byte
		ri := 0
		for _, c := range chunks {
			n := b.Append(c)
			exp := len(c)
			if sp := 256 - len(model); exp > sp {
				exp = sp
			}
			if n != exp {
				return false
			}
			model = append(model, c[:n]...)
			if ri < len(reads) {
				r := int(reads[ri])
				ri++
				got := read(b, r)
				exp := r
				if exp > len(model) {
					exp = len(model)
				}
				if !bytes.Equal(got, model[:exp]) {
					return false
				}
				model = model[exp:]
			}
		}
		return b.Len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestNewSocketProtocols(t *testing.T) {
	d := NewSocket(Dgram, nil)
	if d.Proto != pkt.ProtoUDP {
		t.Fatalf("dgram proto = %d", d.Proto)
	}
	s := NewSocket(Stream, nil)
	if s.Proto != pkt.ProtoTCP {
		t.Fatalf("stream proto = %d", s.Proto)
	}
}

// streamModel is a StreamBuf under test with its plain-slice reference.
type streamModel struct {
	b    StreamBuf
	ref  []byte
	base int64
}

// TestStreamBufModel runs seeded random Append, ReadInto, Peek, Discard
// and Release calls on pairs of buffers that share a free list, against a
// plain []byte reference per buffer. A Release mid-stream discards the
// buffer's bytes and hands its storage to the list, from which either
// buffer's next first append may take it; a buffer that kept a reference
// to storage with a new owner would corrupt the other's bytes. After
// every call Len, Space, Base and the bytes match the reference, and the
// storage is no larger than Limit. The run must take the compaction path
// (bytes moved to the front instead of growing), the rewind path (a
// drained buffer starts over at the front) and reuse from the list.
func TestStreamBufModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var compactions, rewinds, takes int
	for round := 0; round < 100; round++ {
		limit := 1 + rng.Intn(512)
		var free BufFreeList
		ms := []*streamModel{{b: StreamBuf{Limit: limit, Free: &free}}, {b: StreamBuf{Limit: limit, Free: &free}}}
		for op := 0; op < 1000; op++ {
			m := ms[rng.Intn(len(ms))]
			b := &m.b
			switch k := rng.Intn(20); {
			case k < 8:
				p := make([]byte, rng.Intn(limit/2+2))
				rng.Read(p)
				want := min(len(p), limit-len(m.ref))
				compact := b.head > 0 && len(b.data)+want > cap(b.data) && b.Len()+want <= cap(b.data)
				take := cap(b.data) == 0 && want > 0 && len(free.free) > 0
				oldCap := cap(b.data)
				if n := b.Append(p); n != want {
					t.Fatalf("round %d op %d: Append of %d bytes took %d, want %d", round, op, len(p), n, want)
				}
				m.ref = append(m.ref, p[:want]...)
				if compact {
					compactions++
					if cap(b.data) != oldCap || b.head != 0 {
						t.Fatalf("round %d op %d: compaction left head %d, capacity %d (was %d)", round, op, b.head, cap(b.data), oldCap)
					}
				}
				if take {
					takes++
				}
			case k < 12:
				p := make([]byte, rng.Intn(limit/2+2))
				n := b.ReadInto(p)
				want := min(len(p), len(m.ref))
				if n != want || !bytes.Equal(p[:n], m.ref[:n]) {
					t.Fatalf("round %d op %d: ReadInto gave %d bytes %x, want %x", round, op, n, p[:n], m.ref[:want])
				}
				m.ref = m.ref[n:]
				m.base += int64(n)
				if n > 0 && len(m.ref) == 0 {
					rewinds++
					if b.head != 0 || len(b.data) != 0 {
						t.Fatalf("round %d op %d: drained buffer did not rewind: head %d, end %d", round, op, b.head, len(b.data))
					}
				}
			case k < 15:
				off, n := rng.Intn(len(m.ref)+2), rng.Intn(limit/2+2)
				var want []byte
				if off < len(m.ref) {
					want = m.ref[off:min(off+n, len(m.ref))]
				}
				if got := b.Peek(off, n); !bytes.Equal(got, want) || (got == nil) != (want == nil) {
					t.Fatalf("round %d op %d: Peek(%d, %d) = %x, want %x", round, op, off, n, got, want)
				}
			case k < 19:
				n := rng.Intn(limit/2 + 2)
				b.Discard(n)
				n = min(n, len(m.ref))
				m.ref = m.ref[n:]
				m.base += int64(n)
			default:
				had, before := cap(b.data) > 0, len(free.free)
				b.Release()
				m.base += int64(len(m.ref))
				m.ref = nil
				if b.data != nil || (had && len(free.free) != before+1) {
					t.Fatalf("round %d op %d: Release kept its storage or did not return it", round, op)
				}
			}
			for i, m := range ms {
				if m.b.Len() != len(m.ref) || m.b.Space() != limit-len(m.ref) || m.b.Base != m.base {
					t.Fatalf("round %d op %d buffer %d: Len %d, Space %d, Base %d; want %d, %d, %d",
						round, op, i, m.b.Len(), m.b.Space(), m.b.Base, len(m.ref), limit-len(m.ref), m.base)
				}
				if got := m.b.Peek(0, limit); !bytes.Equal(got, m.ref) {
					t.Fatalf("round %d op %d buffer %d holds %x, want %x", round, op, i, got, m.ref)
				}
				if cap(m.b.data) > limit {
					t.Fatalf("round %d op %d buffer %d: storage of %d bytes, over the %d-byte limit", round, op, i, cap(m.b.data), limit)
				}
			}
		}
	}
	if compactions == 0 || rewinds == 0 || takes == 0 {
		t.Fatalf("paths not exercised: %d compactions, %d rewinds, %d takes from the free list", compactions, rewinds, takes)
	}
	t.Logf("%d compactions, %d rewinds, %d takes from the free list", compactions, rewinds, takes)
}
