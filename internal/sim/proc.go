package sim

// Proc is a simulated process. Exactly one of (event loop, some Proc) runs
// at any moment, so while a Proc runs it may freely read and mutate
// engine-owned state (resources, counters, other model structures) without
// locks. The event loop resumes a Proc by calling its Stepper, once per
// dispatch, on Run's goroutine. The Stepper is either a continuation body
// (see cont.go), which returns when it parks, or the Proc's coroutine host
// (see host.go), which runs a straight-line Runner body and switches back to
// the loop at each blocking call.
//
// Procs are pooled on one freelist: a finished Proc, with its host if it has
// one, is recycled by the next spawn of either kind. Spawn-heavy kernels —
// the paper's fine-grained Cilk trees — therefore create Procs and hosts
// only up to the peak live count, not once per simulated thread. The struct
// below is the entire park state of a continuation proc — on 64-bit it is
// under 200 bytes including its registry and event-queue footprint, which
// is what makes millions of concurrently parked threadlets tractable.
type Proc struct {
	eng     *Engine
	stepper Stepper // resumed on every dispatch
	host    *coHost // runs Runner bodies; nil until the Proc first hosts one
	name    string
	done    bool

	// registered is true while the Proc sits in the engine's failure-dump
	// registry; compaction clears it so a recycled Proc re-registers.
	registered bool

	// Failure-dump bookkeeping, maintained on the park/wake paths with plain
	// field stores (no allocation, no formatting) so the hot path stays free.
	site     string // where the Proc last parked: "start", "wait", "join", a semaphore name, ...
	parkedAt Time   // when the Proc last gave up control
	wakeAt   Time   // pending dispatch time; valid only while hasWake
	hasWake  bool
}

// Runner runs the body of a simulated process. Machine layers implement it
// on their pooled thread types so a spawn allocates no per-spawn closure;
// Go and GoAt adapt plain functions through funcRunner.
type Runner interface {
	RunProc(p *Proc)
}

// funcRunner adapts a plain function to Runner. Func values are
// pointer-shaped, so storing one as a host's body does not allocate.
type funcRunner func(*Proc)

func (f funcRunner) RunProc(p *Proc) { f(p) }

// Name reports the name the Proc was spawned with.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this Proc belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Now reports the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// Go creates a process and schedules its first dispatch at the current time
// (plus any queued same-time events ahead of it). fn runs to completion in
// simulation order; when it returns, the process is finished.
func (e *Engine) Go(name string, fn func(*Proc)) *Proc {
	return e.GoAt(e.now, name, fn)
}

// GoAt is like Go but delays the first dispatch until absolute time t.
func (e *Engine) GoAt(t Time, name string, fn func(*Proc)) *Proc {
	return e.SpawnAt(t, name, funcRunner(fn))
}

// SpawnAt creates (or recycles) a process running r and schedules its first
// dispatch at absolute time t. It is GoAt without the closure: the event
// pattern — one dispatch event whose seq is claimed now — is identical.
//
//emu:hotpath the pooled spawn path, allocation-free on a pool hit
func (e *Engine) SpawnAt(t Time, name string, r Runner) *Proc {
	p := e.acquireProc(name)
	e.hostRunner(p, r)
	e.scheduleProc(t, p)
	return p
}

// LaunchAt creates (or recycles) a process running r whose first dispatch is
// scheduled when the launch event fires at absolute time t. This reproduces
// the event pattern of the closure-based deferred spawn it replaces —
// Schedule(t, func(){ Go(name, fn) }) — exactly: one event claims a seq now
// and fires at t; the dispatch event claims a fresh seq at fire time, queuing
// behind events already scheduled for t. Byte-for-byte the same dispatch
// order, without the per-spawn closure.
//
//emu:hotpath the deferred spawn path (machine spawnOn), allocation-free on a pool hit
func (e *Engine) LaunchAt(t Time, name string, r Runner) *Proc {
	p := e.acquireProc(name)
	e.hostRunner(p, r)
	e.launch(t, p)
	return p
}

// launch schedules p's launch event at t (see LaunchAt).
//
//emu:hotpath
func (e *Engine) launch(t Time, p *Proc) {
	p.wakeAt = t
	p.hasWake = true
	e.schedule(t, event{fn: launchMark, proc: p})
}

// launchMark distinguishes a launch event (fn and proc both set) from a
// dispatch (proc only). It is never called.
var launchMark = func() {}

// acquireProc pops a finished Proc from the freelist, or creates a fresh
// one, and counts and registers it as live. The caller installs its Stepper.
//
//emu:hotpath pool hit is the steady state; the miss path is factored into newProc
func (e *Engine) acquireProc(name string) *Proc {
	var p *Proc
	if n := len(e.free); n > 0 {
		p = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		p.done = false
		p.name = name
		p.site = "start"
		p.parkedAt = e.now
		p.hasWake = false
	} else {
		p = e.newProc(name)
	}
	e.procs++
	if !p.registered {
		e.register(p)
		p.registered = true
	}
	return p
}

// newProc allocates a Proc.
//
//emu:cold pool miss: runs once per pool-high-water proc, amortized away in steady state
func (e *Engine) newProc(name string) *Proc {
	return &Proc{eng: e, name: name, site: "start", parkedAt: e.now}
}

// WaitUntil suspends the Proc until absolute simulated time t: SleepUntil,
// then a switch back to the event loop if the wait did not complete in
// place.
//
//emu:hotpath
func (p *Proc) WaitUntil(t Time) {
	if p.SleepUntil(t) {
		p.ParkReason("wait")
	}
}

// Delay suspends the Proc for duration d.
func (p *Proc) Delay(d Time) {
	if d < 0 {
		panic("sim: negative delay")
	}
	p.WaitUntil(p.eng.now + d)
}

// Park suspends the Proc indefinitely; it resumes when another party calls
// Unpark. The caller must have registered itself somewhere an Unpark will
// come from before calling Park.
//
// Park leaves the generic "park" site in failure dumps; call sites should
// prefer ParkReason (the parksite analyzer flags bare Park calls).
//
//emu:hotpath
func (p *Proc) Park() { p.ParkReason("park") }

// ParkReason is Park with a site label recorded for failure dumps, so a
// deadlock report can say what each proc was blocked on. Synchronization
// primitives pass their own label ("join", the semaphore's name); callers of
// plain Park get the generic "park".
//
//emu:hotpath the park half of every context switch
func (p *Proc) ParkReason(site string) {
	p.site = site
	p.parkedAt = p.eng.now
	p.yield()
}

// Unpark schedules p to resume at the current time (after already-queued
// same-time events). It must be called exactly once per Park.
//
//emu:hotpath the wake half of every context switch
func (p *Proc) Unpark() {
	e := p.eng
	e.scheduleProc(e.now, p)
}

// UnparkAt schedules p to resume at absolute time t.
func (p *Proc) UnparkAt(t Time) {
	p.eng.scheduleProc(t, p)
}
