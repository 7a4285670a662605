package fifo

import (
	"math/rand/v2"
	"testing"

	"lrp/internal/race"
)

// TestQueueModel replays seeded random operation sequences on a queue
// and on a slice reference, and checks that they agree after every
// operation: bounded queues (the ring wraps and refuses past its limit)
// and unbounded ones (the ring also grows while wrapped), drops, Front,
// and the zeroing of every retired slot.
func TestQueueModel(t *testing.T) {
	for _, limit := range []int{0, 1, 4, 13} {
		for seed := uint64(1); seed <= 50; seed++ {
			rng := rand.New(rand.NewPCG(seed, uint64(limit)))
			var q Queue[*int]
			q.Limit = limit
			var model []*int
			var drops uint64
			grewWrapped := false
			for op := 0; op < 400; op++ {
				// Lean towards enqueues on the unbounded queue so it grows.
				if rng.IntN(100) < 55 {
					v := new(int)
					*v = op
					wrapped := q.head+q.count > len(q.ring)
					before := q.Cap()
					ok := q.Enqueue(v)
					if want := limit == 0 || len(model) < limit; ok != want {
						t.Fatalf("limit %d seed %d op %d: Enqueue = %v, want %v", limit, seed, op, ok, want)
					}
					if ok {
						model = append(model, v)
					} else {
						drops++
					}
					if q.Cap() > before && wrapped {
						grewWrapped = true
					}
				} else {
					v, ok := q.Dequeue()
					if ok != (len(model) > 0) {
						t.Fatalf("limit %d seed %d op %d: Dequeue ok = %v with %d queued", limit, seed, op, ok, len(model))
					}
					if ok {
						if v != model[0] {
							t.Fatalf("limit %d seed %d op %d: Dequeue = %d, want %d", limit, seed, op, *v, *model[0])
						}
						model = model[1:]
					} else if v != nil {
						t.Fatalf("empty Dequeue returned %v, want the zero value", v)
					}
				}
				if q.Len() != len(model) || q.Drops() != drops {
					t.Fatalf("limit %d seed %d op %d: Len %d Drops %d, want %d %d", limit, seed, op, q.Len(), q.Drops(), len(model), drops)
				}
				if q.Full() != (limit > 0 && len(model) == limit) {
					t.Fatalf("limit %d seed %d op %d: Full = %v with %d queued", limit, seed, op, q.Full(), len(model))
				}
				if f := q.Front(); (f == nil) != (len(model) == 0) || (f != nil && *f != model[0]) {
					t.Fatalf("limit %d seed %d op %d: Front disagrees with the model", limit, seed, op)
				}
				for i := q.count; i < len(q.ring); i++ {
					if q.ring[(q.head+i)%len(q.ring)] != nil {
						t.Fatalf("limit %d seed %d op %d: a free slot still holds an item", limit, seed, op)
					}
				}
			}
			if limit == 0 && seed == 1 && !grewWrapped {
				t.Fatalf("unbounded replay never grew a wrapped ring")
			}
		}
	}
}

// TestQueueZeroValue uses a zero Queue without construction: empty,
// unbounded, and accepting.
func TestQueueZeroValue(t *testing.T) {
	var q Queue[int]
	if q.Len() != 0 || q.Full() || q.Front() != nil || q.Cap() != 0 {
		t.Fatal("zero Queue is not empty")
	}
	if _, ok := q.Dequeue(); ok {
		t.Fatal("zero Queue dequeued an item")
	}
	for i := 0; i < 100; i++ {
		if !q.Enqueue(i) {
			t.Fatalf("zero Queue refused item %d", i)
		}
	}
	if q.Len() != 100 || q.Drops() != 0 {
		t.Fatalf("Len %d Drops %d, want 100 0", q.Len(), q.Drops())
	}
}

// TestQueueFrontWritesThrough updates the head item in place through
// Front, as the kernel does with a preempted burst's remaining cost.
func TestQueueFrontWritesThrough(t *testing.T) {
	var q Queue[int]
	q.Enqueue(5)
	q.Enqueue(6)
	*q.Front() -= 2
	if v, _ := q.Dequeue(); v != 3 {
		t.Fatalf("head = %d after the write through Front, want 3", v)
	}
}

// TestQueueSteadyStateAllocs pins growth as the queue's only allocation:
// once the ring has reached its high-water mark, filling and draining it
// allocates nothing.
func TestQueueSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	var q Queue[[2]int]
	cycle := func() {
		for i := 0; i < 20; i++ {
			q.Enqueue([2]int{i, i})
		}
		for i := 0; i < 20; i++ {
			q.Dequeue()
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("a warm fill-and-drain cycle allocates %v, want 0", n)
	}
}
