package sim

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// failDeadlock builds an engine whose run deadlocks with procs parked at
// several distinct sites: a bare park, a semaphore wait, and a join wait.
func failDeadlock() *Engine {
	e := NewEngine()
	sem := NewSemaphore(e, "slots", 1)
	j := NewJoin(1)
	e.Go("holder", func(p *Proc) {
		sem.Acquire(p)
		p.ParkReason("never") // holds the slot forever
	})
	e.Go("sem-waiter", func(p *Proc) {
		p.Delay(1)
		sem.Acquire(p)
	})
	e.Go("join-waiter", func(p *Proc) {
		j.Wait(p)
	})
	return e
}

// failMaxEvents builds an engine whose run trips the MaxEvents valve while
// two procs ping-pong, leaving both parked mid-body.
func failMaxEvents() *Engine {
	e := NewEngine()
	e.MaxEvents = 64
	for i := 0; i < 2; i++ {
		e.Go("spinner", func(p *Proc) {
			for {
				p.Delay(1)
			}
		})
	}
	return e
}

// failInterrupted builds an engine whose Interrupt hook fires on its first
// poll, aborting the run with procs live.
func failInterrupted() *Engine {
	e := NewEngine()
	cause := errors.New("cancelled")
	e.Interrupt = func() error { return cause }
	for i := 0; i < 3; i++ {
		e.Go("worker", func(p *Proc) {
			for {
				p.Delay(1)
			}
		})
	}
	return e
}

// bodyPanic is the value failPanic's body panics with.
type bodyPanic struct{ n int }

// failPanic builds an engine whose third body panics while the other two
// are parked mid-body (one forever, one on a pending wake-up).
func failPanic() *Engine {
	e := NewEngine()
	e.Go("parked", func(p *Proc) { p.ParkReason("never") })
	e.Go("sleeper", func(p *Proc) { p.Delay(100) })
	e.Go("panicker", func(p *Proc) {
		p.Delay(1)
		panic(bodyPanic{7})
	})
	return e
}

// runRecovering runs e and returns the value a panic carried out of Run.
func runRecovering(e *Engine) (recovered any) {
	defer func() { recovered = recover() }()
	e.Run()
	return nil
}

// TestFailedRunsReleaseParkedGoroutines is the leak regression test: across
// many failing runs of every failure kind, including a body panic, the
// process goroutine count must return to its baseline. Every proc parked
// mid-body when a run fails holds a host goroutine; if teardown did not
// release it, a long-lived job server would accumulate one with every
// watchdog-killed, cancelled, deadlocked, or panicked job.
func TestFailedRunsReleaseParkedGoroutines(t *testing.T) {
	// Let goroutines from other tests settle before taking the baseline.
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	builders := []func() *Engine{failDeadlock, failMaxEvents, failInterrupted}
	const rounds = 40
	for i := 0; i < rounds; i++ {
		for _, build := range builders {
			e := build()
			if err := e.Run(); err == nil {
				t.Fatal("expected the run to fail")
			}
		}
		// A panicking body must surface from Run on this goroutine — not
		// crash the process from a proc host — and leave the engine
		// reusable.
		e := failPanic()
		if r := runRecovering(e); r != (bodyPanic{7}) {
			t.Fatalf("Run recovered %v, want the body's panic value", r)
		}
		if e.LiveProcs() != 0 || e.Pending() != 0 {
			t.Fatalf("engine not clean after a body panic: procs=%d pending=%d", e.LiveProcs(), e.Pending())
		}
		e.Go("ok", func(p *Proc) { p.Delay(1) })
		if err := e.Run(); err != nil {
			t.Fatalf("reused engine failed a clean run after a body panic: %v", err)
		}
	}

	// Teardown synchronizes with every released goroutine before Run
	// returns, but the runtime unwinds exiting goroutines asynchronously;
	// poll briefly before declaring a leak. With the old teardown this
	// plateaus hundreds of goroutines above baseline and fails.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline+3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked across failing runs: baseline %d, now %d", baseline, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestEngineReuseAfterFailure: an engine whose run failed must be clean for
// reuse — no stale live-proc count, no un-fired events, no failure-registry
// carryover — so a second, well-formed run succeeds and reports only its own
// procs on a subsequent failure.
func TestEngineReuseAfterFailure(t *testing.T) {
	e := failDeadlock()
	if err := e.Run(); err == nil {
		t.Fatal("expected deadlock")
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("live procs after failed run = %d, want 0", e.LiveProcs())
	}
	if e.Pending() != 0 {
		t.Fatalf("pending events after failed run = %d, want 0", e.Pending())
	}

	// A clean run on the reused engine must succeed.
	var at Time
	e.Go("ok", func(p *Proc) {
		p.Delay(10)
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("reused engine failed a clean run: %v", err)
	}
	if want := e.Now(); at != want {
		t.Fatalf("reused run resumed at %v, want %v (time stays monotonic)", at, want)
	}

	// A third run that fails must dump only its own procs, not ghosts from
	// the first failure.
	e.Go("fresh-stuck", func(p *Proc) { p.ParkReason("again") })
	err := e.Run()
	re, ok := err.(*RunError)
	if !ok {
		t.Fatalf("Run() = %v, want *RunError", err)
	}
	if len(re.Parked) != 1 || re.Parked[0].Name != "fresh-stuck" {
		t.Fatalf("failure dump carries stale procs: %+v", re.Parked)
	}
}

// TestEngineReuseAfterSuccess: back-to-back successful runs on one engine,
// with the clock staying monotonic across them.
func TestEngineReuseAfterSuccess(t *testing.T) {
	e := NewEngine()
	e.Go("a", func(p *Proc) { p.Delay(100) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	firstNow := e.Now()
	if firstNow != 100 {
		t.Fatalf("first run ended at %v, want 100", firstNow)
	}
	var at Time
	e.Go("b", func(p *Proc) {
		p.Delay(50)
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != firstNow+50 {
		t.Fatalf("second run resumed at %v, want %v", at, firstNow+50)
	}
	if e.LiveProcs() != 0 || e.Pending() != 0 {
		t.Fatalf("engine not clean after reuse: procs=%d pending=%d", e.LiveProcs(), e.Pending())
	}
}

// TestFailedRunReleasesContinuationProcs: continuation procs have no
// goroutine to leak, but a failed run must still reset the live count they
// contribute to.
func TestFailedRunReleasesContinuationProcs(t *testing.T) {
	e := NewEngine()
	e.SpawnContAt(0, "stuck", contForever{})
	if err := e.Run(); err == nil {
		t.Fatal("expected deadlock")
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("live procs after failed run = %d, want 0", e.LiveProcs())
	}
	e.SpawnContAt(e.Now(), "ok", &exitOnce{})
	if err := e.Run(); err != nil {
		t.Fatalf("reused engine failed a clean run: %v", err)
	}
}
