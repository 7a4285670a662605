package results

// The checks run against synthetic rows shaped like healthy and broken
// runs, so the predicate logic is tested in both directions without
// running any simulations.

import "testing"

func wantClean(t *testing.T, vs []Violation) {
	t.Helper()
	if len(vs) != 0 {
		t.Fatalf("healthy data flagged: %v", vs)
	}
}

func wantViolation(t *testing.T, vs []Violation, check string) {
	t.Helper()
	for _, v := range vs {
		if v.Check == check {
			return
		}
	}
	t.Fatalf("expected violation %q, got %v", check, vs)
}

func goodTable1() []Table1Row {
	return []Table1Row{
		{System: "SunOS, Fore driver", RTTMicros: 468, UDPMbps: 52, TCPMbps: 49},
		{System: "4.4 BSD", RTTMicros: 348, UDPMbps: 79, TCPMbps: 72},
		{System: "LRP (NI Demux)", RTTMicros: 330, UDPMbps: 81, TCPMbps: 71},
		{System: "LRP (Soft Demux)", RTTMicros: 314, UDPMbps: 80, TCPMbps: 71},
	}
}

func TestCheckTable1(t *testing.T) {
	wantClean(t, CheckTable1(goodTable1()))

	bad := goodTable1()
	bad[3].RTTMicros = 600 // LRP latency no longer competitive
	wantViolation(t, CheckTable1(bad), "lrp-competitive-rtt")

	bad = goodTable1()
	bad[0].UDPMbps = 95 // vendor driver suddenly best
	wantViolation(t, CheckTable1(bad), "vendor-worst")

	wantViolation(t, CheckTable1(goodTable1()[:2]), "systems")
}

func curve(system string, vals ...float64) Fig3Series {
	s := Fig3Series{System: system}
	for i, v := range vals {
		s.Points = append(s.Points, Fig3Point{Offered: int64(2000 * (i + 1)), Delivered: v})
	}
	return s
}

func goodFig3() []Fig3Series {
	return []Fig3Series{
		curve("4.4 BSD", 2000, 8000, 3000, 100),
		curve("NI-LRP", 2000, 8000, 10700, 10700),
		curve("SOFT-LRP", 2000, 8000, 9000, 5800),
		curve("Early-Demux", 2000, 8000, 5500, 3500),
		curve("Polling (M&R)", 2000, 8000, 8000, 8000),
	}
}

func TestCheckFig3(t *testing.T) {
	wantClean(t, CheckFig3(goodFig3()))

	bad := goodFig3()
	bad[0] = curve("4.4 BSD", 2000, 8000, 7500, 7000) // BSD stays healthy: no livelock shape
	wantViolation(t, CheckFig3(bad), "bsd-collapse")

	bad = goodFig3()
	bad[1] = curve("NI-LRP", 2000, 8000, 10700, 9000) // NI-LRP droops
	wantViolation(t, CheckFig3(bad), "ni-flat")

	bad = goodFig3()
	bad[4] = curve("Polling (M&R)", 2000, 8000, 8000, 12000) // polling above NI-LRP
	wantViolation(t, CheckFig3(bad), "polling-below-ni")

	wantViolation(t, CheckFig3(goodFig3()[:2]), "systems")
}

func TestCheckMLFRR(t *testing.T) {
	good := []MLFRRRow{
		{System: "4.4 BSD", MLFRR: 7250, Peak: 8064},
		{System: "SOFT-LRP", MLFRR: 8250, Peak: 9072},
	}
	wantClean(t, CheckMLFRR(good))
	swapped := []MLFRRRow{
		{System: "4.4 BSD", MLFRR: 9000, Peak: 9500},
		{System: "SOFT-LRP", MLFRR: 8250, Peak: 9072},
	}
	wantViolation(t, CheckMLFRR(swapped), "soft-exceeds-bsd")
	wantViolation(t, CheckMLFRR(good[:1]), "scan")
}

func fig4Curve(system string, lost int, rtts ...float64) Fig4Series {
	s := Fig4Series{System: system}
	for i, v := range rtts {
		s.Points = append(s.Points, Fig4Point{BgRate: int64(4000 * i), RTTMicros: v, Lost: lost})
	}
	return s
}

func TestCheckFig4(t *testing.T) {
	good := []Fig4Series{
		fig4Curve("4.4 BSD", 0, 350, 600, 1200),
		fig4Curve("NI-LRP", 0, 330, 340, 350),
		fig4Curve("SOFT-LRP", 0, 320, 400, 500),
	}
	wantClean(t, CheckFig4(good))

	bad := []Fig4Series{good[0], fig4Curve("NI-LRP", 2, 330, 340, 350), good[2]}
	wantViolation(t, CheckFig4(bad), "separation")

	bad = []Fig4Series{fig4Curve("4.4 BSD", 0, 350, 360, 370), good[1], good[2]}
	wantViolation(t, CheckFig4(bad), "bsd-latency-grows")

	// Full-length runs drive BSD past the point where any probe survives;
	// those points record RTT 0 and must not zero out the growth factor.
	unmeasurable := fig4Curve("4.4 BSD", 0, 350, 600, 1200)
	unmeasurable.Points = append(unmeasurable.Points, Fig4Point{BgRate: 16000, RTTMicros: 0, Lost: 50})
	wantClean(t, CheckFig4([]Fig4Series{unmeasurable, good[1], good[2]}))
}

func goodTable2() []Table2Row {
	var rows []Table2Row
	for _, wl := range []string{"Fast", "Medium", "Slow"} {
		rows = append(rows,
			Table2Row{Workload: wl, System: "4.4 BSD", WorkerElapsed: 47.8, ServerRPCRate: 1784, WorkerShare: 0.315},
			Table2Row{Workload: wl, System: "NI-LRP", WorkerElapsed: 41.6, ServerRPCRate: 1814, WorkerShare: 0.355},
			Table2Row{Workload: wl, System: "SOFT-LRP", WorkerElapsed: 42.0, ServerRPCRate: 1805, WorkerShare: 0.353},
		)
	}
	return rows
}

func TestCheckTable2(t *testing.T) {
	wantClean(t, CheckTable2(goodTable2()))

	bad := goodTable2()
	bad[1].WorkerShare = 0.22 // NI-LRP outside the fairness band
	wantViolation(t, CheckTable2(bad), "fair-band")
	wantViolation(t, CheckTable2(bad), "share-order")

	bad = goodTable2()
	bad[0].WorkerElapsed = 30 // BSD suddenly fastest
	wantViolation(t, CheckTable2(bad), "elapsed-order")
}

func fig5Curve(system string, vals ...float64) Fig5Series {
	s := Fig5Series{System: system}
	for i, v := range vals {
		s.Points = append(s.Points, Fig5Point{SYNRate: int64(10000 * i), HTTPPerSec: v})
	}
	return s
}

func TestCheckFig5(t *testing.T) {
	good := []Fig5Series{
		fig5Curve("4.4 BSD", 100, 40, 0),
		fig5Curve("SOFT-LRP", 98, 80, 52),
	}
	wantClean(t, CheckFig5(good))

	bad := []Fig5Series{fig5Curve("4.4 BSD", 100, 90, 80), good[1]}
	wantViolation(t, CheckFig5(bad), "bsd-collapse")

	bad = []Fig5Series{good[0], fig5Curve("SOFT-LRP", 98, 50, 20)}
	wantViolation(t, CheckFig5(bad), "soft-survives")
}

func goodAblations() []AblationRow {
	return []AblationRow{
		{Experiment: "corrupt-flood", Variant: "Early-Demux", Metric: "victim_cpu_share", Value: 0.11},
		{Experiment: "corrupt-flood", Variant: "SOFT-LRP", Metric: "victim_cpu_share", Value: 0.63},
		{Experiment: "idle-thread", Variant: "enabled", Metric: "recv_call_µs", Value: 56},
		{Experiment: "idle-thread", Variant: "disabled", Metric: "recv_call_µs", Value: 67},
		{Experiment: "early-discard", Variant: "bounded-channel", Metric: "probes_lost", Value: 0},
		{Experiment: "early-discard", Variant: "bounded-channel", Metric: "mbuf_highwater", Value: 71},
		{Experiment: "early-discard", Variant: "unbounded-channel", Metric: "probes_lost", Value: 400},
		{Experiment: "early-discard", Variant: "unbounded-channel", Metric: "mbuf_highwater", Value: 4096},
		{Experiment: "filter-demux", Variant: "hand-coded/1-sockets", Metric: "delivered_pps", Value: 8700},
		{Experiment: "filter-demux", Variant: "interpreted/1-sockets", Metric: "delivered_pps", Value: 9030},
		{Experiment: "filter-demux", Variant: "hand-coded/49-sockets", Metric: "delivered_pps", Value: 8700},
		{Experiment: "filter-demux", Variant: "interpreted/49-sockets", Metric: "delivered_pps", Value: 0},
	}
}

func TestCheckAblations(t *testing.T) {
	wantClean(t, CheckAblations(goodAblations()))

	bad := goodAblations()
	bad[2].Value = 70 // idle thread no longer helps
	wantViolation(t, CheckAblations(bad), "idle-shortens-recv")

	bad = goodAblations()
	bad[11].Value = 8000 // interpreted demux stopped collapsing
	wantViolation(t, CheckAblations(bad), "interpreted-collapses")

	wantViolation(t, CheckAblations(goodAblations()[:3]), "present")
}

func goodMedia() []MediaRow {
	return []MediaRow{
		{System: "4.4 BSD", BgRate: 0, MeanJitterUs: 0},
		{System: "4.4 BSD", BgRate: 6000, MeanJitterUs: 138, P99JitterUs: 481},
		{System: "NI-LRP", BgRate: 0, MeanJitterUs: 0},
		{System: "NI-LRP", BgRate: 6000, MeanJitterUs: 5, P99JitterUs: 8},
		{System: "SOFT-LRP", BgRate: 0, MeanJitterUs: 0},
		{System: "SOFT-LRP", BgRate: 6000, MeanJitterUs: 38, P99JitterUs: 126},
	}
}

func TestCheckMedia(t *testing.T) {
	wantClean(t, CheckMedia(goodMedia()))
	bad := goodMedia()
	bad[3].MeanJitterUs = 120 // NI-LRP jitters like BSD
	wantViolation(t, CheckMedia(bad), "bsd-jitters")
}
