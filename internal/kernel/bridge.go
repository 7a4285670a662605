package kernel

// Direct-style processes.
//
// Spawn runs a straight-line body — one that blocks in Compute, Sleep,
// Block and the like — as an ordinary stackless process whose StepFn is
// a bridge to a goroutine. Each dispatch hands a baton to the body's
// goroutine and waits for it to come back: the body runs until it has
// stored its next request and parked in yield (or has returned, exited
// or panicked), and the scheduler then applies that request exactly as
// it applies any step's. Only one of the two goroutines runs at a time,
// so the simulation stays single-threaded, and the request stream —
// hence every scheduling decision — is the one the same body would
// issue as a step machine.
//
// The bridge costs two goroutine switches per dispatch. It exists for
// tests, examples and tools, where a straight-line body reads better
// than a state machine; every experiment body is a StepFn.

// bridge links one Spawn body's goroutine to its stackless shell.
type bridge struct {
	body func(*Proc)
	// baton passes control between the dispatcher and the body's
	// goroutine: a send hands it over, a receive waits for it back.
	baton chan struct{}
	// killed is set by Shutdown before its final handover; the parked
	// body then unwinds instead of resuming.
	killed bool
}

// Spawn creates a process running fn and makes it runnable. fn executes on
// its own goroutine, interlocked with the scheduler; it must interact with
// simulated time only through Proc methods. See SpawnStep for the
// stackless form.
func (k *Kernel) Spawn(name string, nice int, fn func(*Proc)) *Proc {
	b := &bridge{body: fn, baton: make(chan struct{})}
	return k.SpawnStep(name, nice, b.step)
}

// step is the bridge's StepFn. The first dispatch starts the body's
// goroutine and records the bridge on the process, so p.bridge is set
// exactly when there is a goroutine to unwind; later dispatches hand the
// baton over. Either way step returns once the body has stored its next
// request.
func (b *bridge) step(p *Proc) {
	if p.bridge == nil {
		p.bridge = b
		go b.run(p) //lrp:coroutine the baton keeps exactly one of this goroutine and the dispatcher running
	} else {
		b.baton <- struct{}{}
	}
	<-b.baton
}

// run is the body's goroutine. However the body ends — a return, Exit,
// Block on a pending ReqExit, a panic — the process exits, and a panic
// is re-raised by applyRequest on the goroutine running the simulation.
// Only Shutdown's kill unwinds it without a request.
func (b *bridge) run(p *Proc) {
	if r := b.call(p); r != errKilled {
		if r != nil && r != errExited {
			p.crash = r
		}
		p.reqKind = reqExit
	}
	b.baton <- struct{}{}
}

// call runs the body and returns what it panicked with, if anything.
func (b *bridge) call(p *Proc) (r any) {
	defer func() { r = recover() }()
	b.body(p)
	return nil
}

// kill unwinds the body's goroutine, parked in yield, at Shutdown.
func (b *bridge) kill() {
	b.killed = true
	b.baton <- struct{}{}
	<-b.baton
}

// yield hands the request already stored in p.req* back to the
// dispatcher waiting in step, and blocks until the next dispatch.
//
//lrp:hotpath
func (p *Proc) yield() {
	b := p.bridge
	if b == nil {
		// Blocking methods need a goroutine to park; a stackless body
		// must issue requests with the Req* setters and return instead.
		panic("kernel: blocking call on stackless process " + p.Name) //lrp:coldalloc assertion path
	}
	b.baton <- struct{}{}
	<-b.baton
	if b.killed {
		panic(errKilled)
	}
}
