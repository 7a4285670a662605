package sim

// Deprecated scheduling names that forward to At. The benchmark module's
// sim.lane_post_fire_ns and sim.post_batch8_ns rows still call them;
// nothing else may.

// Lane is a handle that schedules on its engine.
//
// Deprecated: call Engine.At. Only the benchmark module's
// sim.lane_post_fire_ns row still uses Lane.
type Lane struct{ eng *Engine }

// NewLane returns a Lane bound to e.
//
// Deprecated: call Engine.At. Only the benchmark module's
// sim.lane_post_fire_ns row still uses NewLane.
func (e *Engine) NewLane() *Lane { return &Lane{eng: e} }

// Post is Engine.At on the lane's engine.
//
// Deprecated: call Engine.At. Only the benchmark module's
// sim.lane_post_fire_ns row still uses Lane.Post.
func (l *Lane) Post(t Time, fn func()) Event { return l.eng.At(t, fn) }

// Post is one entry of a PostBatch call.
//
// Deprecated: call Engine.At. Only the benchmark module's
// sim.post_batch8_ns row still uses Post.
type Post struct {
	At Time
	Fn func()
}

// PostBatch schedules each entry with At, in slice order.
//
// Deprecated: call Engine.At. Only the benchmark module's
// sim.post_batch8_ns row still uses PostBatch.
func (e *Engine) PostBatch(posts []Post) {
	for i := range posts {
		e.At(posts[i].At, posts[i].Fn)
	}
}
