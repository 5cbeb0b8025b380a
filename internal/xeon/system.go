package xeon

import (
	"fmt"

	"emuchick/internal/sim"
)

// System is one simulated CPU platform: cores with private L2s, a shared
// L3, a DRAM controller, and a Cilk-like runtime (Spawn/Sync) whose workers
// are placed round-robin over hardware threads. Like machine.System it is
// single-use.
type System struct {
	Cfg Config
	Eng *sim.Engine

	clock sim.Clock
	cores []*sim.Resource // per-core issue/execute port
	l2    []*cache        // per-core private L2
	l3    *cache          // shared L3
	mem   *dram

	nextHW  int   // round-robin hardware-thread placement cursor
	nextMem int64 // bump allocator for model addresses

	// prefetchReady holds the DRAM completion time of lines that were
	// prefetched into the caches but whose transfer may still be in
	// flight; a demand hit on such a line waits for it.
	prefetchReady map[int64]sim.Time

	DRAMLines      uint64 // lines fetched from memory (fills + prefetches)
	WritebackLines uint64 // dirty lines written back to memory
	NTWriteLines   uint64 // lines written by non-temporal stores
}

// NewSystem builds a CPU platform from the configuration, panicking on an
// invalid one.
func NewSystem(cfg Config) *System {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := &System{
		Cfg:           cfg,
		Eng:           sim.NewEngineSized(cfg.HardwareThreads()*2 + 64),
		clock:         sim.NewClock(cfg.CoreHz),
		cores:         make([]*sim.Resource, cfg.Cores),
		l2:            make([]*cache, cfg.Cores),
		l3:            newCache(cfg.L3Bytes, cfg.LineBytes, cfg.L3Assoc),
		mem:           newDRAM(&cfg),
		prefetchReady: make(map[int64]sim.Time),
	}
	for i := range s.cores {
		s.cores[i] = sim.NewResource(fmt.Sprintf("core%d", i))
		s.l2[i] = newCache(cfg.L2Bytes, cfg.LineBytes, cfg.L2Assoc)
	}
	return s
}

// Alloc reserves bytes of model address space, aligned to a cache line,
// and returns the base address. The addresses drive the timing model only;
// kernels keep their data in ordinary Go slices.
func (s *System) Alloc(bytes int64) int64 {
	base := s.nextMem
	lb := int64(s.Cfg.LineBytes)
	s.nextMem += (bytes + lb - 1) / lb * lb
	return base
}

// RowHitRatio reports the fraction of DRAM line fetches that hit an open
// row.
func (s *System) RowHitRatio() float64 {
	total := s.mem.rowHits + s.mem.rowMisses
	if total == 0 {
		return 0
	}
	return float64(s.mem.rowHits) / float64(total)
}

// PeakChannelUtilization reports the busiest DRAM channel's utilization.
func (s *System) PeakChannelUtilization(elapsed sim.Time) float64 {
	return s.mem.busiestUtilization(elapsed)
}

// Run executes root as the first software thread and drives the simulation
// to completion, returning total simulated time. root runs as a straight-line
// closure on a coroutine host and uses the blocking ops (Read, Spawn,
// Sync, ...); every thread it spawns is a CPUBody continuation proc.
func (s *System) Run(root func(*CPUThread)) (sim.Time, error) {
	start := s.Eng.Now()
	t := s.newThread()
	s.Eng.GoAt(s.Eng.Now(), "cpu", func(p *sim.Proc) {
		t.p = p
		root(t)
		t.Sync()
	})
	if err := s.Eng.Run(); err != nil {
		return 0, err
	}
	return s.Eng.Now() - start, nil
}

// newThread builds a software thread pinned to the next hardware-thread
// slot in round-robin order.
func (s *System) newThread() *CPUThread {
	t := &CPUThread{sys: s, core: s.nextHW % s.Cfg.Cores, wcLine: -1}
	s.nextHW = (s.nextHW + 1) % s.Cfg.HardwareThreads()
	for i := range t.streams {
		t.streams[i] = -2 // no stream tracks line -2 or -1
	}
	return t
}

// streamTableSize is how many concurrent sequential streams the per-thread
// prefetcher tracks — real L2 prefetchers track several, which matters for
// kernels like STREAM that interleave accesses to multiple arrays.
const streamTableSize = 4

// CPUBody is the body of a spawned CPU thread: a resumable state machine
// the event loop drives by a method call. Step resumes the body with no
// operation pending; it returns true when the body has run to completion,
// or false right after a booking op (CRead, CWrite, CCompute, CSpawn,
// CSync) reported parked=true. The op is complete when Step is re-entered.
type CPUBody interface {
	Step(t *CPUThread) bool
}

// cpuOp is the operation a parked thread is in the middle of, when
// resuming it takes more than letting simulated time pass.
type cpuOp uint8

const (
	opNone  cpuOp = iota
	opSpawn       // spawn overhead booked; launch spawnBody on resume
	opSync        // waiting on the children's join
)

// CPUThread is one software thread of the Cilk runtime, pinned to a core.
//
// Each operation is written once, as a booking half (CRead, CWrite,
// CCompute, CSpawn, CSync) that does the op's work at the current time and
// reports whether the thread parked. A spawned thread runs a CPUBody whose
// Step returns when an op parks; the Run root instead calls the blocking
// wrappers (Read, Write, Compute, Spawn, Sync), which park its coroutine on
// the same wait. Both therefore book identical resources at identical
// times and produce the same (at, seq) event stream.
type CPUThread struct {
	sys      *System
	p        *sim.Proc
	core     int
	body     CPUBody   // nil once the body has run to completion
	parent   *sim.Join // the spawning thread's children; nil for the root
	children sim.Join

	op        cpuOp
	spawnBody CPUBody

	// Stream-prefetcher state (per hardware context): last line and run
	// length of each tracked stream, plus a round-robin victim cursor.
	streams [streamTableSize]int64
	runs    [streamTableSize]int
	victim  int

	// wcLine is the line held by the non-temporal write-combining buffer.
	wcLine int64
}

// StepProc is the sim.Stepper of a spawned thread. It runs the whole
// lifecycle: the body, then the implicit end-of-body sync, then the
// parent's join, then exit.
//
//emu:nohandoff
func (t *CPUThread) StepProc(p *sim.Proc) {
	t.finishOp()
	if t.body != nil {
		//lint:allow nohandoff CPUBody implementations live downstream (cpukernels) and each Step carries its own //emu:nohandoff annotation
		if !t.body.Step(t) {
			return
		}
		t.body = nil
		if t.CSync() {
			return
		}
	}
	t.parent.Done()
	p.Exit()
}

// finishOp completes the pending operation once a parked thread resumes.
//
//emu:hotpath
func (t *CPUThread) finishOp() {
	if t.op == opSpawn {
		s := t.sys
		t.children.Add(1)
		child := s.newThread()
		child.body = t.spawnBody
		child.parent = &t.children
		child.p = s.Eng.SpawnContAt(t.p.Now()+s.Cfg.SpawnOverhead, "cpu", child)
		t.spawnBody = nil
	}
	t.op = opNone
}

// block parks a Run root's coroutine after a booking op reported parked,
// then completes the op — what StepProc's return and re-entry do for a
// spawned thread. ParkReason re-records the site and time the booking op
// already recorded, so SleepUntil plus block is exactly WaitUntil.
func (t *CPUThread) block() {
	if t.op == opSync {
		t.p.ParkReason("join")
	} else {
		t.p.ParkReason("wait")
	}
	t.finishOp()
}

// Await runs body to completion on a Run root, blocking at each op that
// parks. It is how a root drives a CPUBody (a spawn tree, say) inline.
func (t *CPUThread) Await(body CPUBody) {
	for !body.Step(t) {
		t.block()
	}
}

// Core reports the core the thread is pinned to.
func (t *CPUThread) Core() int { return t.core }

// Now reports the current simulated time.
func (t *CPUThread) Now() sim.Time { return t.p.Now() }

// System returns the platform the thread runs on.
func (t *CPUThread) System() *System { return t.sys }

// CCompute charges cycles of execution on the thread's core.
//
//emu:hotpath
func (t *CPUThread) CCompute(cycles int64) (parked bool) {
	if cycles <= 0 {
		return false
	}
	_, done := t.sys.cores[t.core].Acquire(t.p.Now(), t.sys.clock.Cycles(cycles))
	return t.p.SleepUntil(done)
}

// CRead models a blocking load of bytes at addr, walking the cache
// hierarchy per covered line.
//
//emu:hotpath
func (t *CPUThread) CRead(addr, bytes int64) (parked bool) { return t.access(addr, bytes, false) }

// CWrite models a store of bytes at addr with write-allocate semantics: the
// line is fetched like a read, marked dirty, and written back to memory
// when eventually evicted (consuming channel bandwidth asynchronously).
//
//emu:hotpath
func (t *CPUThread) CWrite(addr, bytes int64) (parked bool) { return t.access(addr, bytes, true) }

// CSpawn creates a child thread (cilk_spawn): the parent is charged the
// runtime's spawn overhead on its core, and only then takes the next
// hardware-thread slot for the child, which begins after the same overhead.
//
//emu:hotpath
func (t *CPUThread) CSpawn(body CPUBody) (parked bool) {
	s := t.sys
	t.op = opSpawn
	t.spawnBody = body
	if s.Cfg.SpawnOverhead > 0 {
		_, done := s.cores[t.core].Acquire(t.p.Now(), s.Cfg.SpawnOverhead)
		if t.p.SleepUntil(done) {
			return true
		}
	}
	t.finishOp()
	return false
}

// CSync joins all children spawned so far (cilk_sync).
//
//emu:hotpath
func (t *CPUThread) CSync() (parked bool) {
	if !t.children.WaitCont(t.p) {
		return false
	}
	t.op = opSync
	return true
}

// Compute is the blocking form of CCompute.
func (t *CPUThread) Compute(cycles int64) {
	if t.CCompute(cycles) {
		t.block()
	}
}

// Read is the blocking form of CRead.
func (t *CPUThread) Read(addr, bytes int64) {
	if t.CRead(addr, bytes) {
		t.block()
	}
}

// Write is the blocking form of CWrite.
func (t *CPUThread) Write(addr, bytes int64) {
	if t.CWrite(addr, bytes) {
		t.block()
	}
}

// Spawn is the blocking form of CSpawn.
func (t *CPUThread) Spawn(body CPUBody) {
	if t.CSpawn(body) {
		t.block()
	}
}

// Sync is the blocking form of CSync.
func (t *CPUThread) Sync() {
	if t.CSync() {
		t.block()
	}
}

// WriteNT models a non-temporal (streaming) store: it bypasses the caches
// through a per-thread write-combining buffer, booking one full-line DRAM
// write each time the store stream enters a new line. Tuned STREAM kernels
// use it for the destination array. The thread does not stall.
//
// Only the span's first line can already sit in the write-combining buffer
// (each later line differs from its predecessor by construction), so the
// per-line buffer check of the old loop reduces to one comparison and the
// rest of the span books as a single bulk run per DRAM channel.
//
//emu:hotpath streaming stores book whole line runs in one call
func (t *CPUThread) WriteNT(addr, bytes int64) {
	if bytes <= 0 {
		return
	}
	s := t.sys
	lb := int64(s.Cfg.LineBytes)
	first := addr / lb
	last := (addr + bytes - 1) / lb
	if first == t.wcLine {
		first++ // combines into the open write-combining buffer
	}
	if first > last {
		return
	}
	t.wcLine = last
	s.mem.writebackRun(t.p.Now(), first, last)
	s.NTWriteLines += uint64(last - first + 1)
}

// access books a load or store of bytes at addr line by line and sleeps
// until the last line completes.
//
//emu:hotpath
func (t *CPUThread) access(addr, bytes int64, write bool) (parked bool) {
	if bytes <= 0 {
		return false
	}
	s := t.sys
	lb := int64(s.Cfg.LineBytes)
	first := addr / lb
	last := (addr + bytes - 1) / lb
	finish := t.p.Now()
	for line := first; line <= last; line++ {
		if done := t.lineAccess(line, write); done > finish {
			finish = done
		}
	}
	return t.p.SleepUntil(finish)
}

// insertL3 fills a line into the shared L3, writing back the dirty victim.
func (s *System) insertL3(now sim.Time, line int64) {
	if ev, dirty := s.l3.insert(line); dirty {
		s.mem.writeback(now, ev)
		s.WritebackLines++
	}
}

// insertL2 fills a line into a core's L2; a dirty victim is absorbed by
// the L3 when present there (marked dirty), otherwise written to memory.
func (s *System) insertL2(now sim.Time, core int, line int64) {
	ev, dirty := s.l2[core].insert(line)
	if !dirty {
		return
	}
	if s.l3.contains(ev) {
		s.l3.markDirty(ev)
		return
	}
	s.mem.writeback(now, ev)
	s.WritebackLines++
}

// lineAccess resolves one line through L2 -> L3 -> DRAM and returns the
// completion time. It also drives the stream prefetcher.
func (t *CPUThread) lineAccess(line int64, write bool) sim.Time {
	s := t.sys
	now := t.p.Now()

	// Stream detection: two sequential line advances on any tracked
	// stream arm the prefetcher, which then runs PrefetchDegree lines
	// ahead into L3.
	if s.Cfg.PrefetchDegree > 0 && t.prefetchArm(line) {
		for ahead := int64(1); ahead <= int64(s.Cfg.PrefetchDegree); ahead++ {
			pl := line + ahead
			if !s.l3.contains(pl) {
				ready := s.mem.fetch(now, pl)
				s.insertL3(now, pl)
				s.prefetchReady[pl] = ready
				s.DRAMLines++
			}
			// The L2 prefetcher pulls the stream into the requesting
			// core's private cache, which is what lets STREAM run at
			// L2 speed.
			s.insertL2(now, t.core, pl)
		}
	}

	if s.l2[t.core].lookup(line) {
		if write {
			s.l2[t.core].markDirty(line)
		}
		return s.prefetchWait(line, now+s.Cfg.L2Latency)
	}
	if s.l3.lookup(line) {
		s.insertL2(now, t.core, line)
		if write {
			s.l2[t.core].markDirty(line)
		}
		return s.prefetchWait(line, now+s.Cfg.L3Latency)
	}
	done := s.mem.fetch(now, line)
	s.insertL3(now, line)
	s.insertL2(now, t.core, line)
	if write {
		s.l2[t.core].markDirty(line)
	}
	s.DRAMLines++
	return done
}

// prefetchWait adds any in-flight prefetch completion of line to a hit's
// completion time done, so prefetched lines cannot be consumed faster than
// DRAM delivers them. The empty-map guard keeps prefetch-free kernels
// (pointer chase) off the hash probe entirely.
//
//emu:hotpath
func (s *System) prefetchWait(line int64, done sim.Time) sim.Time {
	if len(s.prefetchReady) == 0 {
		return done
	}
	if ready, ok := s.prefetchReady[line]; ok {
		delete(s.prefetchReady, line)
		if ready > done {
			return ready
		}
	}
	return done
}

// prefetchArm feeds one demand line to the stream table and reports
// whether an armed stream should prefetch ahead of it. Re-touching a
// stream's current line is neutral; advancing it by one line extends the
// run; anything else allocates a fresh table entry round-robin.
func (t *CPUThread) prefetchArm(line int64) bool {
	for i := range t.streams {
		switch line {
		case t.streams[i]:
			return false
		case t.streams[i] + 1:
			t.streams[i] = line
			t.runs[i]++
			return t.runs[i] >= 2
		}
	}
	t.streams[t.victim] = line
	t.runs[t.victim] = 0
	t.victim = (t.victim + 1) % streamTableSize
	return false
}
