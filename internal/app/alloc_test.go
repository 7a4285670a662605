package app

import (
	"runtime"
	"testing"

	"lrp/internal/core"
	"lrp/internal/netsim"
	"lrp/internal/race"
	"lrp/internal/sim"
)

// TestHTTPTransactionAllocs pins the heap cost of one HTTP/1.0
// transaction, client and server together: a connection is one record
// per host, its stream buffers reuse storage from the host's free list,
// receives fill the caller's buffer and segments are built in one
// transmit scratch per host. It runs one client against the Fig. 5
// server (1300-byte document, 500 ms TIME_WAIT) and divides the
// allocator's object and byte counts over 4 s, after a 2 s warm-up, by
// the transactions completed.
func TestHTTPTransactionAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	for _, tc := range []struct {
		arch        core.Arch
		objs, bytes float64 // per transaction
	}{
		{core.ArchBSD, 16, 3000},
		{core.ArchSoftLRP, 19, 3300},
		{core.ArchNILRP, 19, 3300},
	} {
		t.Run(tc.arch.String(), func(t *testing.T) {
			cm := core.DefaultCosts()
			cm.TimeWaitDur = 500 * sim.Millisecond
			eng := sim.NewEngine()
			nw := netsim.New(eng)
			client := core.NewHost(eng, nw, core.Config{Name: "client", Addr: addrA, Arch: tc.arch, Costs: cm})
			server := core.NewHost(eng, nw, core.Config{Name: "server", Addr: addrB, Arch: tc.arch, Costs: cm})
			t.Cleanup(func() { client.Shutdown(); server.Shutdown() })
			hs := &HTTPServer{Host: server, Port: 80, DocSize: 1300}
			hs.Start()
			c := &HTTPClient{Host: client, ServerAddr: addrB, ServerPort: 80, Name: "c"}
			c.Start()

			eng.RunFor(2 * sim.Second)
			done := c.Completed.Total()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			eng.RunFor(4 * sim.Second)
			runtime.ReadMemStats(&after)
			done = c.Completed.Total() - done
			if done == 0 || c.Failures.Total() != 0 {
				t.Fatalf("%d transactions completed, %d failed", done, c.Failures.Total())
			}
			objs := float64(after.Mallocs-before.Mallocs) / float64(done)
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(done)
			t.Logf("%d transactions: %.1f objects, %.0f B each", done, objs, bytes)
			if objs > tc.objs || bytes > tc.bytes {
				t.Errorf("a transaction allocates %.1f objects and %.0f B, want at most %.0f and %.0f", objs, bytes, tc.objs, tc.bytes)
			}
		})
	}
}
