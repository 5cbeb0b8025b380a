package sim

// Continuation-form processes. A continuation proc's body is an explicit
// state machine (a Stepper) that the event loop resumes by a plain method
// call, with no goroutine and no coroutine behind it. Its park state lives
// entirely in the Proc struct plus whatever the Stepper keeps, mirroring the
// hardware it models: an Emu threadlet context is a <200 B register file
// that a Gossamer core swaps in and out, not a stack.
//
// Stepper is also the engine's only dispatch path: a Runner body is hosted
// on a coroutine whose resume is its Proc's Stepper (see host.go), and the
// blocking forms (WaitUntil, Semaphore.Acquire, Join.Wait) are the
// continuation forms below followed by a switch back to the event loop. So
// both kinds of proc run through the same scheduling code, and a
// continuation port of a kernel that performs the identical sequence of
// waits and wakes produces a bit-identical (at, seq) event stream.

// Stepper is the continuation-form analogue of Runner: the body of a
// simulated process expressed as a resumable state machine. StepProc is
// called once per dispatch of p, on the event loop's goroutine; it must
// either run the body to completion and call p.Exit(), or arrange a future
// wake-up (a scheduled sleep or a registered waiter) and return. Returning
// without either is a deadlock, exactly as for a Runner body that parks with
// no waker.
type Stepper interface {
	StepProc(p *Proc)
}

// SpawnContAt creates (or recycles) a continuation process driven by s and
// schedules its first dispatch at absolute time t — the same event pattern
// as SpawnAt.
//
//emu:hotpath the continuation spawn path, allocation-free on a pool hit
func (e *Engine) SpawnContAt(t Time, name string, s Stepper) *Proc {
	p := e.acquireProc(name)
	p.stepper = s
	e.scheduleProc(t, p)
	return p
}

// LaunchContAt is LaunchAt for continuation processes: the first dispatch is
// scheduled when the launch event fires at absolute time t, claiming a fresh
// seq at fire time.
//
//emu:hotpath the continuation deferred spawn path, allocation-free on a pool hit
func (e *Engine) LaunchContAt(t Time, name string, s Stepper) *Proc {
	p := e.acquireProc(name)
	p.stepper = s
	e.launch(t, p)
	return p
}

// Exit finishes a process. A Stepper must call it exactly once, when its
// body has run to completion, and must not touch p afterwards: the Proc
// returns to the freelist and may be recycled by the very next spawn. (A
// coroutine host calls it when its Runner body returns.)
//
//emu:hotpath the continuation thread-exit path
func (p *Proc) Exit() {
	p.done = true
	p.eng.procs--
	p.eng.free = append(p.eng.free, p)
}

// SleepUntil suspends a continuation process until absolute simulated time
// t. parked=false means the wait completed in place and the body continues:
// t was not after now, or every pending event fires strictly after t, so
// the dispatch this wait would schedule is provably the next event and the
// engine fast-forwards the clock instead (see Engine.fastForward).
// parked=true means a dispatch was scheduled and StepProc must return, to
// be called again at t.
//
//emu:hotpath
func (p *Proc) SleepUntil(t Time) (parked bool) {
	e := p.eng
	if t <= e.now {
		return false
	}
	if e.fastForward(t) {
		return false
	}
	p.site = "wait"
	p.parkedAt = e.now
	e.scheduleProc(t, p)
	return true
}

// Suspend records the park site and park time of a continuation process
// about to return from StepProc awaiting an Unpark (from a semaphore grant,
// a join completion, ...). It is the bookkeeping half of ParkReason; the
// "give up control" half is simply returning from StepProc.
//
//emu:hotpath the park half of a continuation context switch
func (p *Proc) Suspend(site string) {
	p.site = site
	p.parkedAt = p.eng.now
}
