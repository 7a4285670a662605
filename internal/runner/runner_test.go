package runner

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapPreservesOrder(t *testing.T) {
	items := make([]int, 64)
	for i := range items {
		items[i] = i
	}
	got := Map(NewPool(8), items, func(i, v int) int {
		// Finish late items first so completion order is scrambled.
		time.Sleep(time.Duration(len(items)-i) * 100 * time.Microsecond)
		return v * v
	})
	for i, v := range got {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int32
	Map(NewPool(workers), make([]struct{}, 24), func(int, struct{}) int {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return 0
	})
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent jobs, bound is %d", p, workers)
	}
	if p := peak.Load(); p < 2 {
		t.Errorf("observed %d concurrent jobs; pool never overlapped work", p)
	}
}

func TestMapSerialRunsInline(t *testing.T) {
	// Workers <= 1 must execute on the caller's goroutine, in order:
	// appending to a shared slice without a lock is then race-free.
	var order []int
	Map(NewPool(1), []int{0, 1, 2, 3}, func(i, _ int) int {
		order = append(order, i)
		return 0
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("serial call order %v", order)
		}
	}
	if NewPool(0).Workers() != 1 || NewPool(-3).Workers() != 1 {
		t.Errorf("workers below 1 should clamp to 1")
	}
	if (*Pool)(nil).Workers() != 1 {
		t.Errorf("nil pool should report 1 worker")
	}
}

func TestMapParallelMatchesSerial(t *testing.T) {
	items := make([]int, 50)
	for i := range items {
		items[i] = 7 * i
	}
	fn := func(i, v int) string { return fmt.Sprintf("%d:%d", i, v*v-v) }
	serial := Map(NewPool(1), items, fn)
	parallel := Map(NewPool(16), items, fn)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("results diverge at %d: %q vs %q", i, serial[i], parallel[i])
		}
	}
}

func TestMapPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic in a job was swallowed")
		}
		if s, ok := r.(string); !ok || s != "boom" {
			t.Fatalf("unexpected panic value %v", r)
		}
	}()
	Map(NewPool(4), []int{0, 1, 2, 3, 4, 5}, func(i, _ int) int {
		if i == 3 {
			panic("boom")
		}
		return i
	})
}

func TestCrossOrder(t *testing.T) {
	got := Cross([]string{"a", "b"}, []int{1, 2, 3})
	want := []Pair[string, int]{
		{"a", 1}, {"a", 2}, {"a", 3},
		{"b", 1}, {"b", 2}, {"b", 3},
	}
	if len(got) != len(want) {
		t.Fatalf("len %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cell %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestSweepShapesGrid(t *testing.T) {
	spec := Spec[string, int, string]{
		Systems: []string{"x", "y", "z"},
		Axis:    []int{10, 20},
		Run:     func(s string, v int) string { return fmt.Sprintf("%s@%d", s, v) },
	}
	rows := Sweep(NewPool(4), spec)
	if len(rows) != 3 {
		t.Fatalf("rows %d", len(rows))
	}
	for i, sys := range spec.Systems {
		if len(rows[i]) != 2 {
			t.Fatalf("row %d len %d", i, len(rows[i]))
		}
		for j, v := range spec.Axis {
			if want := fmt.Sprintf("%s@%d", sys, v); rows[i][j] != want {
				t.Fatalf("rows[%d][%d] = %q, want %q", i, j, rows[i][j], want)
			}
		}
	}
}

// TestMapManyWorkersFewItems guards the admission path when the bound
// exceeds the item count.
func TestMapManyWorkersFewItems(t *testing.T) {
	got := Map(NewPool(32), []int{5, 6}, func(_, v int) int { return v + 1 })
	if got[0] != 6 || got[1] != 7 {
		t.Fatalf("got %v", got)
	}
	var wg sync.WaitGroup
	// Concurrent use of one pool by several sweeps must also be safe.
	p := NewPool(4)
	for k := 0; k < 3; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			Map(p, make([]int, 20), func(i, _ int) int { return i })
		}()
	}
	wg.Wait()
}
