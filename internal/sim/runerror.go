package sim

import (
	"fmt"
	"strings"
)

// FailureKind classifies why a run could not complete.
type FailureKind int

const (
	// FailDeadlock means the event queue drained while processes were still
	// live: some Proc parked forever with nothing left to wake it.
	FailDeadlock FailureKind = iota
	// FailMaxEvents means the MaxEvents safety valve tripped.
	FailMaxEvents
	// FailMaxTime means the MaxTime safety valve tripped.
	FailMaxTime
	// FailInterrupted means the Interrupt hook aborted the run (a cancelled
	// context or an expired watchdog deadline); Cause carries its error.
	FailInterrupted
)

// String names the failure kind for logs and failure records.
func (k FailureKind) String() string {
	switch k {
	case FailDeadlock:
		return "deadlock"
	case FailMaxEvents:
		return "max-events"
	case FailMaxTime:
		return "max-time"
	case FailInterrupted:
		return "interrupted"
	}
	return fmt.Sprintf("FailureKind(%d)", int(k))
}

// ParkedProc is the state of one live Proc at the moment a run failed: where
// it parked, when it last gave up control, and its scheduled wake-up if one
// was pending. At a deadlock no parked proc has a wake-up —
// that is what makes it a deadlock.
type ParkedProc struct {
	Name     string
	Site     string // park site: "wait", "join", a semaphore name, ...
	ParkedAt Time   // when the proc last gave up control
	WakeAt   Time   // scheduled wake-up time; only valid when HasWake
	HasWake  bool   // whether a dispatch event for this proc was pending
}

// RunError is the engine's structured failure report, replacing the bare
// one-line errors the valves and the deadlock detector used to return. It
// carries enough state — engine time, fired-event count, and a dump of every
// live Proc with its park site — for a caller to record a useful post-mortem
// without re-running the simulation.
type RunError struct {
	Kind      FailureKind
	Now       Time   // engine time when the run failed
	Fired     uint64 // events dispatched before the failure
	MaxEvents uint64 // the valve's setting (FailMaxEvents)
	MaxTime   Time   // the valve's setting (FailMaxTime)
	Parked    []ParkedProc
	Cause     error // the Interrupt hook's error (FailInterrupted)
}

// Unwrap exposes the interrupt cause so errors.Is sees context.Canceled or
// context.DeadlineExceeded through a RunError.
func (e *RunError) Unwrap() error { return e.Cause }

func (e *RunError) Error() string {
	switch e.Kind {
	case FailDeadlock:
		return fmt.Sprintf("sim: deadlock: %d process(es) parked with no pending events at t=%v%s",
			len(e.Parked), e.Now, e.parkedSummary())
	case FailMaxEvents:
		return fmt.Sprintf("sim: exceeded MaxEvents=%d at t=%v (%d events fired)%s",
			e.MaxEvents, e.Now, e.Fired, e.parkedSummary())
	case FailMaxTime:
		return fmt.Sprintf("sim: exceeded MaxTime=%v at t=%v (%d events fired)", e.MaxTime, e.Now, e.Fired)
	case FailInterrupted:
		return fmt.Sprintf("sim: run interrupted at t=%v after %d events: %v", e.Now, e.Fired, e.Cause)
	}
	return fmt.Sprintf("sim: run failed (%v) at t=%v", e.Kind, e.Now)
}

// parkedSummary lists the first few parked procs inline; the full dump stays
// in the Parked field for structured consumers.
func (e *RunError) parkedSummary() string {
	if len(e.Parked) == 0 {
		return ""
	}
	const maxListed = 8
	var b strings.Builder
	b.WriteString(": ")
	for i, p := range e.Parked {
		if i == maxListed {
			fmt.Fprintf(&b, ", +%d more", len(e.Parked)-i)
			break
		}
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s@%s(parked t=%v", p.Name, p.Site, p.ParkedAt)
		if p.HasWake {
			fmt.Fprintf(&b, ", wake t=%v", p.WakeAt)
		}
		b.WriteByte(')')
	}
	return b.String()
}

// register adds p to the failure-dump registry, compacting out finished
// procs once they dominate the slice so long runs with high proc turnover
// (millions of short-lived threadlets) keep the registry proportional to the
// live count rather than the spawn count. A recycled Proc that is still
// registered from its previous lifetime keeps its entry (the registered flag
// on the Proc prevents a duplicate); compaction clears the flag on the procs
// it drops so they re-register on their next spawn.
//
//emu:hotpath on the spawn path; the compaction sweep reuses the slice
func (e *Engine) register(p *Proc) {
	if len(e.all) > 64 && len(e.all) > 4*e.procs {
		live := e.all[:0]
		for _, q := range e.all {
			if !q.done {
				live = append(live, q)
			} else {
				q.registered = false
			}
		}
		for i := len(live); i < len(e.all); i++ {
			e.all[i] = nil
		}
		e.all = live
	}
	e.all = append(e.all, p)
}

// failure snapshots the engine's state into a RunError. The dump walks the
// proc registry in spawn order, so it is deterministic for a deterministic
// run.
func (e *Engine) failure(kind FailureKind, cause error) *RunError {
	re := &RunError{
		Kind:      kind,
		Now:       e.now,
		Fired:     e.fired,
		MaxEvents: e.MaxEvents,
		MaxTime:   e.MaxTime,
		Cause:     cause,
	}
	for _, p := range e.all {
		if p.done {
			continue
		}
		re.Parked = append(re.Parked, ParkedProc{
			Name:     p.name,
			Site:     p.site,
			ParkedAt: p.parkedAt,
			WakeAt:   p.wakeAt,
			HasWake:  p.hasWake,
		})
	}
	return re
}
