package stepfn_test

import (
	"testing"

	"lrp/internal/analysis/analysistest"
	"lrp/internal/analysis/stepfn"
)

// TestStacklessContract drives the stepfn checks over testdata posing as
// an app package: blocking Proc calls are flagged in argument, factory
// and assignment StepFn positions; Req* setters, nested engine-context
// closures and plain blocking wrappers pass.
func TestStacklessContract(t *testing.T) {
	analysistest.Run(t, stepfn.Analyzer, "testdata/stepbody", "lrp/internal/app")
}
