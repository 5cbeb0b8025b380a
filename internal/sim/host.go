//go:build go1.23

// This is the package's one file that imports iter. The build constraint
// raises its language version to 1.23 while go.mod stays at 1.22, so modules
// that require this one at 1.22 (perfbench) build unchanged.

package sim

import "iter"

// coHost runs Runner bodies for one Proc on an iter.Pull coroutine, and is
// that Proc's Stepper: a dispatch resumes the coroutine, and a blocking call
// in the body (ParkReason and the wrappers built on it) yields back to the
// event loop. The event loop therefore never leaves Run's goroutine, and a
// context switch is a runtime coroutine switch.
//
// A host outlives the bodies it runs: when one returns, the host exits its
// Proc and yields until the Proc is respawned with the next body, so
// spawn-heavy trees create hosts only up to the peak live count. Teardown
// stops every host at the end of Run.
type coHost struct {
	p      *Proc
	body   Runner
	resume func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool
}

// procAborted is the panic sentinel that unwinds a parked body's frames when
// teardown stops its host mid-body.
type procAborted struct{}

// hostRunner installs r as p's next body and p's host as its Stepper,
// creating the host the first time p runs a Runner.
//
//emu:hotpath pool hit is the steady state; the miss path is factored into newHost
func (e *Engine) hostRunner(p *Proc, r Runner) {
	h := p.host
	if h == nil {
		h = e.newHost(p)
	}
	h.body = r
	p.stepper = h
}

// newHost creates p's coroutine host. The coroutine starts on its first
// resume.
//
//emu:cold pool miss: runs once per pool-high-water proc, amortized away in steady state
func (e *Engine) newHost(p *Proc) *coHost {
	h := &coHost{p: p}
	h.resume, h.stop = iter.Pull(h.loop)
	p.host = h
	e.hosts = append(e.hosts, h)
	return h
}

// StepProc resumes the body where it last parked, or starts the next one. A
// panic in the body comes out of this call, on the event loop's goroutine.
//
//emu:hotpath
func (h *coHost) StepProc(*Proc) { h.resume() }

// loop is the coroutine: run the body, exit the Proc, and wait for the next
// body until teardown stops the host.
func (h *coHost) loop(yield func(struct{}) bool) {
	h.yield = yield
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(procAborted); !ok {
				panic(r)
			}
		}
	}()
	for {
		h.body.RunProc(h.p)
		h.body = nil
		h.p.Exit()
		if !yield(struct{}{}) {
			return
		}
	}
}

// yield gives control back to the event loop until p's next dispatch. The
// caller must already have recorded its park site and arranged that
// dispatch (a scheduled wake-up or a registered waiter), otherwise the
// engine reports a deadlock. If teardown stops the host instead, the body
// unwinds.
//
//emu:hotpath a context switch is one coroutine switch, nothing more
func (p *Proc) yield() {
	if !p.host.yield(struct{}{}) {
		panic(procAborted{})
	}
}
