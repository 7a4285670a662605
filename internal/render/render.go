// Package render formats result payloads as the text tables lrpbench
// prints: one printer per experiment, all with one signature, which
// exp.Registry binds to their experiments. The CLI and the archive
// regression tests both print through exp.Render, so the tests'
// byte-for-byte comparison against the archived text covers this code.
package render

import (
	"fmt"
	"io"

	"lrp/internal/plot"
	"lrp/internal/results"
)

// Options tunes rendering.
type Options struct {
	// Plot renders ASCII charts above the figures' tables.
	Plot bool
}

// Table1 prints Table 1.
func Table1(w io.Writer, rows []results.Table1Row, _ Options) {
	fmt.Fprintln(w, "Table 1: Throughput and Latency")
	fmt.Fprintln(w, "(paper: RTT 1006/855/840/864 µs; UDP 64/82/92/86 Mbps; TCP 63/69/67/66 Mbps)")
	fmt.Fprintf(w, "%-22s %14s %16s %16s\n", "System", "RTT (µs)", "UDP (Mbit/s)", "TCP (Mbit/s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %12.0f %16.1f %16.1f\n", r.System, r.RTTMicros, r.UDPMbps, r.TCPMbps)
	}
}

// Fig3 prints Figure 3, with its chart when o.Plot is set.
func Fig3(w io.Writer, series []results.Fig3Series, o Options) {
	fmt.Fprintln(w, "Figure 3: Throughput versus offered load (14-byte UDP, pkts/s)")
	if o.Plot {
		c := plot.Chart{Title: "Figure 3", XLabel: "offered rate (pkts/s)", YLabel: "delivered (pkts/s)", Width: 64, Height: 18}
		for _, s := range series {
			var xs, ys []float64
			for _, p := range s.Points {
				xs = append(xs, float64(p.Offered))
				ys = append(ys, p.Delivered)
			}
			c.Add(s.System, xs, ys)
		}
		fmt.Fprintln(w, c.Render())
	}
	fmt.Fprintf(w, "%-10s", "offered")
	for _, s := range series {
		fmt.Fprintf(w, " %12s", s.System)
	}
	fmt.Fprintln(w)
	for i := range series[0].Points {
		fmt.Fprintf(w, "%-10d", series[0].Points[i].Offered)
		for _, s := range series {
			fmt.Fprintf(w, " %12.0f", s.Points[i].Delivered)
		}
		fmt.Fprintln(w)
	}
}

// MLFRR prints each system's maximum loss-free receive rate.
func MLFRR(w io.Writer, rows []results.MLFRRRow, _ Options) {
	fmt.Fprintln(w, "Maximum Loss-Free Receive Rate (paper: SOFT-LRP 9210 vs BSD 6380, +44%)")
	fmt.Fprintf(w, "%-14s %10s %12s\n", "System", "MLFRR", "Peak (pkt/s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %10d %12.0f\n", r.System, r.MLFRR, r.Peak)
	}
}

// Fig4 prints Figure 4, with its chart when o.Plot is set.
func Fig4(w io.Writer, series []results.Fig4Series, o Options) {
	fmt.Fprintln(w, "Figure 4: Latency with concurrent load (µs round trip; * = probes lost)")
	if o.Plot {
		c := plot.Chart{Title: "Figure 4", XLabel: "background rate (pkts/s)", YLabel: "round trip (µs)", Width: 64, Height: 18}
		for _, s := range series {
			var xs, ys []float64
			for _, p := range s.Points {
				if p.RTTMicros > 0 {
					xs = append(xs, float64(p.BgRate))
					ys = append(ys, p.RTTMicros)
				}
			}
			c.Add(s.System, xs, ys)
		}
		fmt.Fprintln(w, c.Render())
	}
	fmt.Fprintf(w, "%-10s", "bg pkt/s")
	for _, s := range series {
		fmt.Fprintf(w, " %12s", s.System)
	}
	fmt.Fprintln(w)
	for i := range series[0].Points {
		fmt.Fprintf(w, "%-10d", series[0].Points[i].BgRate)
		for _, s := range series {
			mark := ""
			if s.Points[i].Lost > 0 {
				mark = "*"
			}
			fmt.Fprintf(w, " %11.0f%1s", s.Points[i].RTTMicros, mark)
		}
		fmt.Fprintln(w)
	}
}

// Table2 prints Table 2.
func Table2(w io.Writer, rows []results.Table2Row, _ Options) {
	fmt.Fprintln(w, "Table 2: Synthetic RPC Server Workload")
	fmt.Fprintln(w, "(paper Fast: elapsed 49.7/34.6/38.7 s; shares 23-26% BSD vs 29-33% LRP)")
	fmt.Fprintf(w, "%-8s %-12s %16s %14s %14s\n", "RPC", "System", "Worker (s)", "RPCs/s", "Worker share")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %-12s %16.1f %14.0f %13.1f%%\n",
			r.Workload, r.System, r.WorkerElapsed, r.ServerRPCRate, r.WorkerShare*100)
	}
}

// Fig5 prints Figure 5, with its chart when o.Plot is set.
func Fig5(w io.Writer, series []results.Fig5Series, o Options) {
	fmt.Fprintln(w, "Figure 5: HTTP Server Throughput under SYN flood (transfers/s)")
	fmt.Fprintln(w, "(paper: BSD livelocks near 10k SYN/s; LRP keeps ~50% at 20k)")
	if o.Plot {
		c := plot.Chart{Title: "Figure 5", XLabel: "SYN rate (pkts/s)", YLabel: "HTTP transfers/s", Width: 64, Height: 18}
		for _, s := range series {
			var xs, ys []float64
			for _, p := range s.Points {
				xs = append(xs, float64(p.SYNRate))
				ys = append(ys, p.HTTPPerSec)
			}
			c.Add(s.System, xs, ys)
		}
		fmt.Fprintln(w, c.Render())
	}
	fmt.Fprintf(w, "%-10s", "SYN/s")
	for _, s := range series {
		fmt.Fprintf(w, " %12s", s.System)
	}
	fmt.Fprintln(w)
	for i := range series[0].Points {
		fmt.Fprintf(w, "%-10d", series[0].Points[i].SYNRate)
		for _, s := range series {
			fmt.Fprintf(w, " %12.1f", s.Points[i].HTTPPerSec)
		}
		fmt.Fprintln(w)
	}
}

// Ablations prints the ablation measurements.
func Ablations(w io.Writer, rows []results.AblationRow, _ Options) {
	fmt.Fprintln(w, "Ablations: isolating LRP's individual design choices")
	fmt.Fprintf(w, "%-16s %-20s %-22s %10s\n", "experiment", "variant", "metric", "value")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %-20s %-22s %10.1f\n", r.Experiment, r.Variant, r.Metric, r.Value)
	}
}

// Media prints the media stream's delivery jitter.
func Media(w io.Writer, rows []results.MediaRow, _ Options) {
	fmt.Fprintln(w, "Media stream (30 fps) delivery jitter vs background blast")
	fmt.Fprintf(w, "%-12s %10s %14s %12s\n", "System", "bg pkt/s", "mean jitter µs", "p99 µs")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %10d %14.0f %12d\n", r.System, r.BgRate, r.MeanJitterUs, r.P99JitterUs)
	}
}

// SMP prints the multi-core scaling sweep.
func SMP(w io.Writer, series []results.SMPSeries, _ Options) {
	fmt.Fprintln(w, "Multi-core scaling: single-queue vs RSS multi-queue receive")
	fmt.Fprintf(w, "%-10s %-8s %6s %12s %14s %8s %8s %8s %8s\n",
		"System", "queues", "cores", "offered", "goodput pkt/s", "p99 µs", "ipis", "steals", "wakes")
	for _, s := range series {
		for _, p := range s.Points {
			p99 := fmt.Sprintf("%d", p.P99Us)
			if p.P99Us < 0 {
				p99 = "-"
			}
			fmt.Fprintf(w, "%-10s %-8s %6d %12d %14.0f %8s %8d %8d %8d\n",
				s.System, s.Queues, p.Cores, p.OfferedPps, p.GoodputPps, p99, p.IPIs, p.Steals, p.RemoteWakes)
		}
	}
}

// WAN prints the internet-scale sweep.
func WAN(w io.Writer, series []results.WANSeries, _ Options) {
	fmt.Fprintln(w, "Internet-scale sweep: aggregated client populations through multi-hop topologies")
	fmt.Fprintln(w, "(gateways run the same kernel as the server; eager processing livelocks per hop)")
	fmt.Fprintf(w, "%-24s %-10s %8s %6s %10s %14s %10s %10s %10s\n",
		"Topology", "System", "clients", "procs", "offered", "goodput pkt/s", "srv drops", "gw drops", "forwarded")
	for _, s := range series {
		name := s.Topology
		if s.Impaired != "" {
			name += "+" + s.Impaired
		}
		for _, p := range s.Points {
			fmt.Fprintf(w, "%-24s %-10s %8d %6d %10d %14.0f %10d %10d %10d\n",
				name, s.System, s.Clients, s.Procs, p.OfferedPps, p.GoodputPps, p.ServerDrops, p.GwDrops, p.Forwarded)
		}
	}
}

// Faults prints the fault robustness curves.
func Faults(w io.Writer, curves []results.FaultCurve, _ Options) {
	fmt.Fprintln(w, "Robustness curves: per-architecture behavior under injected faults")
	for i, cv := range curves {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%s — severity axis: %s\n", cv.Impairment, cv.Axis)
		if cv.Impairment == "tcp-reorder" {
			fmt.Fprintf(w, "%-14s %10s %12s\n", "System", "severity", "TCP Mbit/s")
			for _, s := range cv.Series {
				for _, p := range s.Points {
					fmt.Fprintf(w, "%-14s %10g %12.1f\n", s.System, p.Severity, p.TCPMbps)
				}
			}
			continue
		}
		fmt.Fprintf(w, "%-14s %10s %14s %10s %8s %8s\n",
			"System", "severity", "goodput pkt/s", "p99 µs", "lost", "victim")
		for _, s := range cv.Series {
			for _, p := range s.Points {
				p99 := fmt.Sprintf("%d", p.P99Us)
				if p.P99Us < 0 {
					p99 = "-"
				}
				fmt.Fprintf(w, "%-14s %10g %14.0f %10s %8d %7.1f%%\n",
					s.System, p.Severity, p.GoodputPps, p99, p.ProbesLost, p.VictimShare*100)
			}
		}
	}
}
