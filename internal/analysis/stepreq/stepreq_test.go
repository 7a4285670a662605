package stepreq_test

import (
	"testing"

	"lrp/internal/analysis/analysistest"
	"lrp/internal/analysis/stepreq"
)

// TestStepProtocol drives the stepreq interpreter over testdata posing as
// an app package against the real kernel types: yield-without-request,
// completion-with-pending, double-arming (direct and through an inlined
// retry closure), discarded conditional-setter and helper results, frame
// reuse without Reset, and mbuf locals held across a yield are flagged;
// the dispatch-machine idiom with branch-correlated pc updates, constant
// positive costs, Reset-between-operations and mbuf transfer stay
// silent.
func TestStepProtocol(t *testing.T) {
	analysistest.Run(t, stepreq.Analyzer, "testdata/stepproto", "lrp/internal/app")
}
