package core

// The Mogul & Ramakrishnan polling mitigation (USENIX '96), which the
// paper's related work compares against: "These techniques avoid receiver
// livelock by temporarily disabling hardware interrupts and using polling
// under conditions of overload. Disabling interrupts limits the interrupt
// rate and causes early packet discard by the network interface. Polling
// is used to ensure progress by fairly allocating resources among receive
// and transmit processing." The paper notes its overload stability is
// comparable to NI-LRP's, but "their system does not achieve traffic
// separation ... does not attempt to charge resources spent in network
// processing to the receiving application, and it does not attempt to
// reduce context switching."
//
// The implementation reuses the BSD driver (bsdDriverStep) verbatim; only
// the interrupt discipline changes. Under overload (IP queue occupancy at
// or above PollEnterThresh after a driver step), receive interrupts are
// disabled and a periodic poll admits at most PollBatch packets per
// PollInterval; arrivals beyond the ring bound die on the adaptor at no
// host cost. A poll that finds the ring empty re-enables interrupts.
// Polling is single-queue: it polls queue 0 and feeds CPU 0's IP queue.

import "lrp/internal/kernel"

// enterPolledMode disables receive interrupts and starts the poll cycle.
func (h *Host) enterPolledMode() {
	if h.polled {
		return
	}
	h.polled = true
	h.stats.PollTransitions++
	h.NIC.SetIntrEnabled(false)
	h.NIC.IntrDoneQ(0)
	h.Eng.After(h.CM.PollInterval, h.pollPassFn)
}

// pollPass runs once per PollInterval in polled mode: admit a bounded
// batch from the ring (as software-interrupt work, like the BSD driver
// would), or exit polled mode if the ring is empty.
func (h *Host) pollPass() {
	if !h.polled {
		return
	}
	n := h.NIC.RxPendingQ(0)
	if n == 0 && h.work[0].softnet.Len() == 0 {
		h.polled = false
		h.NIC.SetIntrEnabled(true)
		return
	}
	if n > 0 {
		n = min(n, h.CM.PollBatch)
		// The poll's driver work: one fixed dispatch plus per-packet
		// cost, charged like any interrupt-level work (to whoever runs —
		// polling does not fix BSD's accounting). pollBatch admits the
		// batch when it completes.
		h.pollQ.Enqueue(n)
		h.K.PostSW(kernel.WorkItem{Cost: h.CM.SWDispatchFixed + int64(n)*h.CM.DriverPerPkt, Fn: h.pollFn})
	}
	// A drained ring with protocol work still queued stays polled too.
	h.Eng.After(h.CM.PollInterval, h.pollPassFn)
}

// pollBatch admits the head poll record's batch from the ring onto CPU 0's
// IP queue, one software interrupt per admitted packet.
func (h *Host) pollBatch() {
	n, _ := h.pollQ.Dequeue()
	cw := &h.work[0]
	for i := 0; i < n; i++ {
		m := h.NIC.RxDequeueQ(0)
		if m == nil {
			break
		}
		cw.post(m, nil, h.protoInCost(m.Data, true)+h.CM.EagerProtoPenalty)
	}
}
