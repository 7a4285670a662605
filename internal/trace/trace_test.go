package trace

import (
	"strings"
	"testing"
)

func fakeClock() (func() int64, *int64) {
	t := new(int64)
	return func() int64 { *t += 10; return *t }, t
}

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	l.Add(Record{Kind: KindDrop, What: "ignored"})
	if l.Len() != 0 || l.Overwritten() != 0 || l.Dump() != "" || l.Records() != nil {
		t.Fatal("nil log misbehaved")
	}
}

func TestAppendAndDump(t *testing.T) {
	clock, _ := fakeClock()
	l := New(8, clock)
	l.Add(Record{Kind: KindDispatch, Node: "cpu0", Proc: "worker", N: 3})
	l.Add(Record{Kind: KindDrop, Node: "host", What: "channel full"})
	if l.Len() != 2 {
		t.Fatalf("len = %d", l.Len())
	}
	d := l.Dump()
	for _, want := range []string{"dispatch", "worker takes CPU", "drop", "channel full", "10µs", "20µs"} {
		if !strings.Contains(d, want) {
			t.Fatalf("dump missing %q:\n%s", want, d)
		}
	}
}

// TestRecordString pins each kind's rendering, the text lrptrace prints.
func TestRecordString(t *testing.T) {
	for _, tc := range []struct {
		r    Record
		want string
	}{
		{Record{At: 5, Kind: KindDispatch, Node: "server", Proc: "echo", N: 2}, "         5µs dispatch server: echo takes CPU (prio 2)"},
		{Record{At: 6, Kind: KindIntr, Node: "server"}, "         6µs intr     server: hw work done"},
		{Record{At: 7, Kind: KindSoftIntr, Node: "server"}, "         7µs softintr server: sw work done"},
		{Record{At: 8, Kind: KindDemux, Node: "server", What: "match"}, "         8µs demux    server: verdict=match"},
		{Record{At: 9, Kind: KindDrop, Node: "server", What: "no endpoint"}, "         9µs drop     server: no endpoint"},
		{Record{At: 10, Kind: KindDrop, Node: "server", What: "early discard at channel", Port: 7}, "        10µs drop     server: early discard at channel port 7"},
		{Record{At: 11, Kind: KindDeliver, Node: "server", N: 14, Port: 7}, "        11µs deliver  server: udp 14 bytes -> port 7"},
	} {
		if got := tc.r.String(); got != tc.want {
			t.Errorf("%+v renders %q, want %q", tc.r, got, tc.want)
		}
	}
}

func TestRingOverwrite(t *testing.T) {
	clock, _ := fakeClock()
	l := New(3, clock)
	for i := 0; i < 7; i++ {
		l.Add(Record{Kind: KindDeliver, N: i})
	}
	if l.Len() != 3 {
		t.Fatalf("len = %d", l.Len())
	}
	if l.Overwritten() != 4 {
		t.Fatalf("overwritten = %d", l.Overwritten())
	}
	rs := l.Records()
	// Chronological: 4, 5, 6.
	for i, r := range rs {
		if r.N != 4+i {
			t.Fatalf("records %v", rs)
		}
	}
	for i := 1; i < len(rs); i++ {
		if rs[i].At <= rs[i-1].At {
			t.Fatal("records out of order")
		}
	}
	if d := l.Dump(); !strings.HasPrefix(d, "(4 earlier events overwritten)\n") {
		t.Fatalf("dump does not count the overwritten records:\n%s", d)
	}
}

func TestAddAllocatesNothing(t *testing.T) {
	clock, _ := fakeClock()
	l := New(4, clock)
	node, what := "server", "no endpoint"
	if n := testing.AllocsPerRun(100, func() {
		l.Add(Record{Kind: KindDrop, Node: node, What: what, Port: 7})
	}); n != 0 {
		t.Fatalf("Add allocates %.1f objects", n)
	}
}

func TestKindStrings(t *testing.T) {
	for k := KindDispatch; k <= KindDeliver; k++ {
		if k.String() == "" || strings.HasPrefix(k.String(), "kind(") {
			t.Fatalf("kind %d unnamed", k)
		}
	}
	if Kind(99).String() != "kind(99)" {
		t.Fatal("unknown kind format")
	}
}
