// Package hotgen holds the generic code of the hotalloc transitive-test
// chain: a container whose method grows a slice and a generic function
// that makes one, both reached from the hot root in hotroot only through
// their instantiations.
package hotgen

// Stack is a generic container.
type Stack[T any] struct {
	items []T
}

// Push grows the stack; hotroot.Hot calls it on a Stack[int].
func (s *Stack[T]) Push(v T) {
	s.items = append(s.items, v) // want `append may grow and allocate in a hot path.*\(reached from //lrp:hotpath hotroot\.Hot via hotroot\.Hot -> hotgen\.\(\*Stack\)\.Push\)`
}

// Filled returns n copies of v; hotroot.Hot calls it with T inferred.
func Filled[T any](v T, n int) []T {
	out := make([]T, n) // want `make allocates in a hot path \(reached from //lrp:hotpath hotroot\.Hot via hotroot\.Hot -> hotgen\.Filled\)`
	for i := range out {
		out[i] = v
	}
	return out
}
