package socket

import (
	"bytes"
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

func TestDgramQueueModel(t *testing.T) {
	// Property: queue behaviour matches a simple slice model under any
	// operation sequence, bounded (the ring wraps) or unbounded (it also
	// grows while wrapped).
	for _, limit := range []int{4, 0} {
		f := func(ops []bool) bool {
			return dgramQueueMatchesModel(limit, ops)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		}
	}
}

// dgramQueueMatchesModel replays ops (true: enqueue, false: dequeue) on
// a queue bounded at limit and on a slice model, and reports whether they
// agree throughout.
func dgramQueueMatchesModel(limit int, ops []bool) bool {
	q := NewDgramQueue(limit)
	var model []byte
	next := byte(0)
	for _, enq := range ops {
		if enq {
			ok := q.Enqueue(Datagram{Data: []byte{next}})
			if ok != (limit == 0 || len(model) < limit) {
				return false
			}
			if ok {
				model = append(model, next)
			}
			next++
		} else {
			d, ok := q.Dequeue()
			if ok != (len(model) > 0) {
				return false
			}
			if ok {
				if d.Data[0] != model[0] {
					return false
				}
				model = model[1:]
			}
		}
	}
	return q.Len() == len(model)
}

func TestStreamBufAppendRead(t *testing.T) {
	b := NewStreamBuf(10)
	if n := b.Append([]byte("hello")); n != 5 {
		t.Fatalf("append = %d", n)
	}
	if n := b.Append([]byte("world!!")); n != 5 {
		t.Fatalf("append should truncate to space: %d", n)
	}
	if b.Space() != 0 || b.Len() != 10 {
		t.Fatalf("space=%d len=%d", b.Space(), b.Len())
	}
	got := b.Read(7)
	if string(got) != "hellowo" {
		t.Fatalf("read %q", got)
	}
	if b.Base != 7 {
		t.Fatalf("base = %d", b.Base)
	}
	if string(b.Read(100)) != "rld" {
		t.Fatal("tail read wrong")
	}
}

func TestStreamBufPeekDiscard(t *testing.T) {
	b := NewStreamBuf(0)
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
	b := NewStreamBuf(0)
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
		b := NewStreamBuf(256)
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
				got := b.Read(r)
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
