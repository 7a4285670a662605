package fault_test

import (
	"testing"

	"lrp/internal/fault"
	"lrp/internal/netsim"
	"lrp/internal/nic"
	"lrp/internal/pkt"
	"lrp/internal/sim"
)

// FuzzParsePlan hands any bytes to ParsePlan, as lrpbench -faultplan does
// with a user's file. A plan it accepts is installed network-wide between
// two NICs, a few packets cross it and the engine runs one simulated
// second: nothing may panic. The seed corpus in
// testdata/fuzz/FuzzParsePlan holds both shipped scenarios and three
// plans whose delays overflowed the jitter draw or the engine clock
// before Validate bounded them.
func FuzzParsePlan(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		plan, err := fault.ParsePlan(data)
		if err != nil {
			return
		}
		eng := sim.NewEngine()
		nw := netsim.New(eng)
		a, b := pkt.IP(10, 0, 0, 1), pkt.IP(10, 0, 0, 2)
		nw.Attach(nic.New(eng, nic.Config{Name: "a", Mode: nic.ModeRaw}), a, 155_000_000, 10)
		nw.Attach(nic.New(eng, nic.Config{Name: "b", Mode: nic.ModeRaw}), b, 155_000_000, 10)
		nw.SetFaults(fault.MustNew(plan))
		for i := 0; i < 8; i++ {
			p := pkt.UDPPacket(a, b, 9, 7, uint16(i), 64, []byte("payload"), true)
			eng.At(int64(i)*100*sim.Millisecond, func() { nw.Inject(p) })
		}
		eng.RunFor(sim.Second)
	})
}
