// Package hotroot is the root of the hotalloc transitive-test chain: its
// hot function allocates nothing directly, so every diagnostic it earns
// comes from the call graph.
package hotroot

import (
	"lrp/internal/hotdeep"
	"lrp/internal/hotgen"
	"lrp/internal/hotmid"
)

// Hot is the annotated root; the allocation three frames down in
// hotdeep.Grow is reported with this root's chain, and so are the
// allocations in the generic code it instantiates.
//
//lrp:hotpath
func Hot(reg *hotdeep.Registry, st *hotgen.Stack[int], n int) []int {
	out := hotmid.Middle(reg, n)
	_ = hotmid.OwnRoot()
	st.Push(n)
	_ = hotgen.Filled(n, n)
	return out
}
