package sim

import "fmt"

// event is a scheduled engine action: a plain callback (fn set), the
// dispatch of a parked Proc (proc set), or the launch of a freshly spawned
// Proc (both set, fn == launchMark; firing it schedules the proc's first
// dispatch at the fire time). Dispatch and launch targets are kept in
// dedicated fields rather than closures so the context-switch and spawn hot
// paths (WaitUntil, Unpark, SpawnAt, LaunchAt) allocate nothing per event.
// Events fire in (at, seq) order so that ties resolve in scheduling order
// and runs are deterministic.
type event struct {
	at   Time
	seq  uint64
	fn   func()
	proc *Proc
}

// before reports whether a fires ahead of b in the engine's (at, seq)
// total order.
func (a event) before(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// numLanes bounds how many distinct timestamps can be lane-buffered at
// once. Machine models rarely have more than a few deadline classes in
// flight (current tick, plus a handful of operation latencies), so a small
// lane count absorbs almost all traffic while keeping the push/pop scans
// tiny. An interleaved four-vs-eight A/B across the bandwidth and chase
// figures measured no difference beyond run-to-run noise, so the count
// stays at four; it is a pure perf knob — the k-way merge keeps dispatch
// order bit-identical at any lane count.
const numLanes = 4

// lane is a FIFO of events that all share the timestamp at. head indexes
// the next entry to fire; the lane is empty (and reusable for another
// timestamp) when head catches up with the slice.
type lane struct {
	at   Time
	evs  []event
	head int
}

func (ln *lane) empty() bool { return ln.head == len(ln.evs) }

// Engine is a sequential discrete-event simulator. It is not safe for
// concurrent use; all interaction must happen from the goroutine that calls
// Run, or from a Proc body while the event loop is dispatching it.
//
// The pending-event queue has two parts:
//
//   - heap: a typed 4-ary min-heap ordered by (at, seq). A 4-ary layout
//     halves the tree depth of a binary heap and keeps each sibling scan
//     inside one or two cache lines, and holding event values directly
//     (instead of container/heap's interface{} boxing) makes push/pop
//     allocation-free.
//   - lanes: a small set of FIFOs, each holding events for one exact
//     timestamp. Simulated machines schedule in bursts of identical
//     deadlines — every Go/Unpark/dispatch lands at now, and symmetric
//     nodelets finish same-cost operations at the same future tick — so
//     most pushes join a lane in O(1) and never touch the heap. A lane
//     whose events have all fired is re-keyed to the next new timestamp
//     that needs one; only pushes that find all lanes busy with other
//     times fall through to the heap.
//
// Each lane is appended in scheduling order and holds a single timestamp,
// so its FIFO order is exactly the (at, seq) order among its entries; the
// heap is (at, seq)-ordered by construction. next() takes the smallest
// (at, seq) front across the heap and every lane — a k-way merge of sorted
// sequences over a strict total order (seq is unique) — so the dispatch
// order is bit-identical to a single heap's regardless of which queue an
// event landed in.
type Engine struct {
	now Time
	seq uint64

	heap    []event
	lanes   [numLanes]lane
	pending int // events scheduled but not yet fired, across heap and lanes

	procs int     // live (spawned, not finished) procs
	all   []*Proc // every registered Proc, for failure dumps (see register)

	// free holds finished Procs, ready to be recycled by the next spawn of
	// either kind. hosts holds every coroutine host created this run, for
	// teardown to stop.
	free  []*Proc
	hosts []*coHost

	fired     uint64 // events dispatched so far
	MaxEvents uint64 // safety valve; 0 means no limit
	MaxTime   Time   // safety valve; 0 means no limit

	// Interrupt, when non-nil, is polled every 1024 dispatched events; a
	// non-nil return aborts the run with that error. Callers point it at a
	// context.Context's Err to make runs cancellable without per-event cost.
	Interrupt func() error
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// NewEngineSized is NewEngine with the event queues pre-sized for roughly
// hint concurrently pending events (machine models pass their hardware
// thread-context capacity), avoiding growth reallocations during the run.
func NewEngineSized(hint int) *Engine {
	e := NewEngine()
	if hint > 0 {
		e.heap = make([]event, 0, hint)
		for i := range e.lanes {
			e.lanes[i].evs = make([]event, 0, hint)
		}
	}
	return e
}

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have been dispatched.
func (e *Engine) Fired() uint64 { return e.fired }

// LiveProcs reports the number of spawned processes that have not finished.
func (e *Engine) LiveProcs() int { return e.procs }

// Pending reports the number of scheduled events that have not yet fired.
func (e *Engine) Pending() int { return e.pending }

// Schedule registers fn to run at absolute time t. Scheduling in the past is
// a bug in the caller and panics.
func (e *Engine) Schedule(t Time, fn func()) {
	e.schedule(t, event{fn: fn})
}

// scheduleProc registers the dispatch of p at absolute time t without
// allocating a closure. The wake-up time is mirrored onto the Proc so a
// failure dump can distinguish "parked with a pending wake" from "parked
// forever".
//
//emu:hotpath every park/wake schedules through here
func (e *Engine) scheduleProc(t Time, p *Proc) {
	p.wakeAt = t
	p.hasWake = true
	e.schedule(t, event{proc: p})
}

//emu:hotpath lane-or-heap insert, allocation-free in steady state
func (e *Engine) schedule(t Time, ev event) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	e.pending++
	ev.at = t
	ev.seq = e.seq
	// Join the lane already buffering this timestamp, or claim a drained
	// one for it; only a miss on both falls through to the heap.
	free := -1
	for i := range e.lanes {
		ln := &e.lanes[i]
		if ln.empty() {
			if free < 0 {
				free = i
			}
			continue
		}
		if ln.at == t {
			ln.evs = append(ln.evs, ev)
			return
		}
	}
	if free >= 0 {
		ln := &e.lanes[free]
		ln.at = t
		ln.evs = append(ln.evs[:0], ev)
		ln.head = 0
		return
	}
	e.pushHeap(ev)
}

// After registers fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e.Schedule(e.now+d, fn)
}

// pushHeap inserts ev into the 4-ary min-heap.
//
//emu:hotpath
func (e *Engine) pushHeap(ev event) {
	e.heap = append(e.heap, ev)
	h := e.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !ev.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	e.heap = h
}

// popHeap removes and returns the minimum event of the 4-ary min-heap.
//
//emu:hotpath
func (e *Engine) popHeap() event {
	// Vacated slots are not cleared: everything an event references (fn
	// closures, Procs) is reachable for the whole run anyway, and the
	// engine is dropped as a unit when the run ends.
	h := e.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	e.heap = h
	if n > 0 {
		// Bottom-up sift (Wegener): walk the hole from the root to a leaf
		// along the min-child path, then drop the detached last element in
		// and bubble it up. The displaced leaf usually belongs near the
		// bottom, so this saves the per-level comparison against it that a
		// classic top-down sift would spend on the way.
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			end := c + 4
			if end > n {
				end = n
			}
			m := c
			for j := c + 1; j < end; j++ {
				if h[j].before(h[m]) {
					m = j
				}
			}
			h[i] = h[m]
			i = m
		}
		for i > 0 {
			p := (i - 1) >> 2
			if !last.before(h[p]) {
				break
			}
			h[i] = h[p]
			i = p
		}
		h[i] = last
	}
	return top
}

// next removes and returns the globally earliest pending event: the
// smallest (at, seq) front across the heap and every lane.
//
//emu:hotpath k-way merge front, one pass over four lanes
func (e *Engine) next() event {
	e.pending--
	best := -1 // lane index holding the current minimum; -1 means the heap
	var bestEv event
	have := len(e.heap) > 0
	if have {
		bestEv = e.heap[0]
	}
	for i := range e.lanes {
		ln := &e.lanes[i]
		if ln.empty() {
			continue
		}
		if front := ln.evs[ln.head]; !have || front.before(bestEv) {
			bestEv = front
			have = true
			best = i
		}
	}
	if best < 0 {
		return e.popHeap()
	}
	ln := &e.lanes[best]
	ln.head++
	if ln.empty() {
		ln.evs = ln.evs[:0]
		ln.head = 0
	}
	return bestEv
}

// fastForward is the uncontended-wait fast path behind Proc.SleepUntil: the
// running Proc wants to sleep until t. If every pending event fires strictly
// after t, the dispatch event the sleep would schedule — claiming the next
// seq, at time t — would by construction be the very next event the loop
// pops (any pending event at exactly t holds a smaller seq and would fire
// first, hence the strict comparison). In that case the schedule/pop round
// trip is pure overhead: the engine instead claims the seq and the firing
// directly and hops the clock to t, leaving (now, seq, fired) — and
// therefore every subsequent event ordering — bit-identical to the slow
// path. Runs with a safety valve or interrupt hook in a state the event
// loop would act on decline the fast path so failure behaviour is
// byte-for-byte unchanged.
//
//emu:hotpath the no-contention wait: a clock hop instead of a queue round trip
func (e *Engine) fastForward(t Time) bool {
	if e.MaxEvents > 0 && e.fired >= e.MaxEvents {
		return false
	}
	if e.MaxTime > 0 && t > e.MaxTime {
		return false
	}
	if e.Interrupt != nil && e.fired&1023 == 0 {
		return false
	}
	if len(e.heap) > 0 && e.heap[0].at <= t {
		return false
	}
	for i := range e.lanes {
		ln := &e.lanes[i]
		if ln.head < len(ln.evs) && ln.at <= t {
			return false
		}
	}
	e.seq++
	e.fired++
	e.now = t
	return true
}

// Run dispatches events in order until none remain. It returns an error if a
// safety valve trips or if processes are still live when the event queue
// drains (a deadlock: some Proc parked forever).
//
// The event loop runs on the calling goroutine only: every dispatch, of a
// continuation body or of a Runner body's coroutine host, is a call made
// from here, so a panic in any body comes out of Run.
// Run may be called again on the same engine after it returns or panics:
// teardown leaves the engine in a clean reusable state whether the run
// succeeded or not (the clock, seq counter, and fired count stay monotonic
// across runs — simulated time never rewinds).
func (e *Engine) Run() error {
	ok := false
	defer func() { e.teardown(!ok) }()
	err := e.loop()
	ok = err == nil
	return err
}

// teardown retires the proc pools after a run. It first stops every
// coroutine host: a host parked mid-body unwinds its body, and an idle one
// returns, so no host goroutine outlives the run. After a failed run it then
// clears the scheduling state (un-fired events, live-proc count, failure
// registry) the failure left behind, so reusing the engine cannot silently
// misbehave.
func (e *Engine) teardown(failed bool) {
	for _, h := range e.hosts {
		h.stop()
	}
	e.hosts = nil
	if failed {
		e.heap = e.heap[:0]
		for i := range e.lanes {
			ln := &e.lanes[i]
			ln.evs = ln.evs[:0]
			ln.head = 0
		}
		e.pending = 0
		e.procs = 0
	}
	e.free = nil
	for i := range e.all {
		e.all[i].registered = false
		e.all[i] = nil
	}
	e.all = e.all[:0]
}

// loop is the event loop: it pops events in (at, seq) order and fires
// them until the queue drains or a valve trips.
//
//emu:hotpath the event loop itself; failure exits allocate via e.failure, which is fine — they end the run
func (e *Engine) loop() error {
	for {
		if e.pending == 0 {
			if e.procs > 0 {
				return e.failure(FailDeadlock, nil)
			}
			return nil
		}
		if e.MaxEvents > 0 && e.fired >= e.MaxEvents {
			return e.failure(FailMaxEvents, nil)
		}
		if e.Interrupt != nil && e.fired&1023 == 0 {
			if err := e.Interrupt(); err != nil {
				return e.failure(FailInterrupted, err)
			}
		}
		ev := e.next()
		if ev.at < e.now {
			panic("sim: time went backwards")
		}
		if e.MaxTime > 0 && ev.at > e.MaxTime {
			return e.failure(FailMaxTime, nil)
		}
		e.now = ev.at
		e.fired++
		if ev.proc == nil {
			ev.fn()
			continue
		}
		if ev.fn != nil {
			// Launch: schedule the new proc's first dispatch now, claiming
			// a fresh seq exactly as the closure-based deferred spawn did
			// when its Schedule closure fired.
			e.scheduleProc(e.now, ev.proc)
			continue
		}
		if ev.proc.done {
			panic("sim: dispatching finished proc " + ev.proc.name)
		}
		ev.proc.hasWake = false
		ev.proc.stepper.StepProc(ev.proc)
	}
}
