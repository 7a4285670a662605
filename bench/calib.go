package main

import (
	"container/heap"
	"slices"
	"time"
)

// The machine this benchmark runs on shares its CPUs with other tenants
// and slows down by 10-50% for seconds to minutes at a time, which moves
// every host-time metric far more than a code change would. So before
// each world the benchmark times calibrate, a fixed piece of work that
// shares nothing with the simulator, and scales the run's host times by
// calibrationRef over the lower quartile of those samples: the metrics
// read as host time at the machine speed where calibrate takes
// calibrationRef. Changing calibrate or calibrationRef rescales every
// time metric, so neither may change without re-recording the baseline.
const calibrationRef = 1400 * time.Microsecond

// speedScale returns calibrationRef over the lower quartile of the
// calibration samples taken before the given worlds.
func speedScale(passes ...[]worldResult) float64 {
	var cal []time.Duration
	for _, rs := range passes {
		for _, r := range rs {
			cal = append(cal, r.cal)
		}
	}
	slices.Sort(cal)
	return float64(calibrationRef) / float64(cal[len(cal)/4])
}

// calibrate runs a small discrete-event loop in the simulator's style
// (a binary heap of timed closures, small allocations, a map of flows)
// on the standard library only, and returns how long it took.
func calibrate() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	rnd := func() uint64 { // xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	var q calQueue
	now, seq := int64(0), 0
	flows := map[uint32]int{}
	at := func(d int64, fn func()) {
		seq++
		heap.Push(&q, &calEvent{at: now + d, seq: seq, fn: fn})
	}
	for s := 0; s < 64; s++ {
		var src func()
		src = func() {
			flows[uint32(rnd()&0xfff)]++
			calSink += len(make([]byte, 64+rnd()%256))
			at(int64(rnd()%1000), src)
		}
		at(int64(s), src)
	}
	for n := 0; n < 6000; n++ {
		ev := heap.Pop(&q).(*calEvent)
		now = ev.at
		ev.fn()
	}
	calSink += len(flows)
	return time.Since(start)
}

var calSink int

type calEvent struct {
	at  int64
	seq int
	fn  func()
}

type calQueue []*calEvent

func (q calQueue) Len() int { return len(q) }
func (q calQueue) Less(i, j int) bool {
	return q[i].at < q[j].at || q[i].at == q[j].at && q[i].seq < q[j].seq
}
func (q calQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *calQueue) Push(x any)   { *q = append(*q, x.(*calEvent)) }
func (q *calQueue) Pop() any {
	old := *q
	ev := old[len(old)-1]
	*q = old[:len(old)-1]
	return ev
}
