package kernels

import (
	"emuchick/internal/cilk"
	"emuchick/internal/machine"
	"emuchick/internal/memsys"
	"emuchick/internal/sim"
)

// Continuation-form kernel bodies: the spawn-heavy kernels (STREAM,
// pointer chase, ping-pong) restated as machine.CBody state machines with
// operation sequences identical to their closure twins. A kernel run
// either way produces the same simulated times, counters, traces, and
// memory — the machine.Thread closures remain in the kernel files as the
// reference the equivalence tests diff against.

// timedRoot wraps a resumable spawn tree as a run's root body and records
// the elapsed time from body start to the tree's final join — the same
// measured region as `t0 := root.Now(); ...; res = root.Now() - t0` in the
// closure roots.
type timedRoot struct {
	drive   func(t *machine.CThread) (parked bool)
	out     *sim.Time
	started bool
	done    bool
	t0      sim.Time
}

//emu:nohandoff CBody contract: park state, never the goroutine
func (r *timedRoot) Step(t *machine.CThread) bool {
	if !r.started {
		r.started = true
		r.t0 = t.Now()
	}
	if !r.done {
		//lint:allow nohandoff drive is bound at construction to cilk Workers.Drive or Grouped.Drive, both pure CThread state machines
		if r.drive(t) {
			return false
		}
		r.done = true
		*r.out = t.Now() - r.t0
	}
	return true
}

// streamShared is the per-run state every STREAM worker reads.
type streamShared struct {
	a, b, c vector
	kernel  StreamKernel
	loads   int
	index   func(nl, j int) int
}

// streamWorker walks one worker's share of the stripe:
// load a[i] (+ b[i]), store c[i], charge the loop overhead.
type streamWorker struct {
	sh     *streamShared
	nl     int // the nodelet whose stripe this worker serves
	j, hi  int
	va, vb uint64
	pc     int
}

//emu:nohandoff CBody contract: park state, never the goroutine
func (w *streamWorker) Step(t *machine.CThread) bool {
	s := w.sh
	for {
		switch w.pc {
		case 0: // loop head
			if w.j >= w.hi {
				return true
			}
			w.pc = 1
			//lint:allow nohandoff index is the arithmetic stripe-index closure from streamShared construction
			if t.CLoad(s.a.At(s.index(w.nl, w.j))) {
				return false
			}
		case 1:
			w.va = t.Value()
			if s.loads == 2 {
				w.pc = 2
				//lint:allow nohandoff index is the arithmetic stripe-index closure from streamShared construction
				if t.CLoad(s.b.At(s.index(w.nl, w.j))) {
					return false
				}
			} else {
				w.vb = 0
				w.pc = 3
			}
		case 2:
			w.vb = t.Value()
			w.pc = 3
		case 3:
			w.pc = 4
			//lint:allow nohandoff index is the arithmetic stripe-index closure from streamShared construction
			if t.CStore(s.c.At(s.index(w.nl, w.j)), s.kernel.apply(w.va, w.vb)) {
				return false
			}
		case 4:
			w.j++
			w.pc = 0
			if t.CCompute(streamOverheadCycles) {
				return false
			}
		}
	}
}

// streamContRoot builds the continuation root body for one STREAM run.
func streamContRoot(cfg StreamConfig, sh *streamShared, out *sim.Time) machine.CBody {
	ws := cilk.NewWorkers(cfg.Nodelets, cfg.Threads, cfg.Strategy, func(id int) machine.CBody {
		nl := id % cfg.Nodelets
		rank := id / cfg.Nodelets
		ranks := (cfg.Threads - nl + cfg.Nodelets - 1) / cfg.Nodelets
		lo, hi := share(cfg.ElemsPerNodelet, rank, ranks)
		return &streamWorker{sh: sh, nl: nl, j: lo, hi: hi}
	})
	return &timedRoot{drive: ws.Drive, out: out}
}

// chaseWorker walks one pointer chain: two dependent loads and the loop
// overhead per element, until the end-of-list sentinel.
type chaseWorker struct {
	sums []uint64
	k    int
	addr memsys.Addr
	sum  uint64
	next uint64
	pc   int
}

//emu:nohandoff CBody contract: park state, never the goroutine
func (w *chaseWorker) Step(t *machine.CThread) bool {
	for {
		switch w.pc {
		case 0: // payload load
			w.pc = 1
			if t.CLoad(w.addr) {
				return false
			}
		case 1: // next-pointer load
			w.sum += t.Value()
			w.pc = 2
			if t.CLoad(w.addr.Plus(1)) {
				return false
			}
		case 2: // loop overhead
			w.next = t.Value()
			w.pc = 3
			if t.CCompute(chaseOverheadCycles) {
				return false
			}
		case 3:
			if w.next == endOfList {
				w.sums[w.k] = w.sum
				return true
			}
			w.addr = memsys.Addr(w.next)
			w.pc = 0
		}
	}
}

// chaseContRoot builds the continuation root body for one pointer-chase run.
func chaseContRoot(groups [][]int, starts []memsys.Addr, sums []uint64, out *sim.Time) machine.CBody {
	g := cilk.NewGrouped(groups, func(k int) machine.CBody {
		return &chaseWorker{sums: sums, k: k, addr: starts[k]}
	})
	return &timedRoot{drive: g.Drive, out: out}
}

// pingWorker migrates back and forth between two nodelets.
type pingWorker struct {
	a, b     int
	iters, i int
	pc       int
}

//emu:nohandoff CBody contract: park state, never the goroutine
func (w *pingWorker) Step(t *machine.CThread) bool {
	for w.i < w.iters {
		switch w.pc {
		case 0:
			w.pc = 1
			if t.CMigrateTo(w.b) {
				return false
			}
		case 1:
			w.pc = 0
			w.i++
			if t.CMigrateTo(w.a) {
				return false
			}
		}
	}
	return true
}

// pingSpawner fans the ping-pong workers out from the root, all on nodelet A.
type pingSpawner struct {
	cfg PingPongConfig
	k   int
}

func (s *pingSpawner) drive(t *machine.CThread) bool {
	for s.k < s.cfg.Threads {
		s.k++
		w := &pingWorker{a: s.cfg.NodeletA, b: s.cfg.NodeletB, iters: s.cfg.Iterations}
		if t.CSpawnAt(s.cfg.NodeletA, w) {
			return false
		}
	}
	return true
}

// pingContRoot builds the continuation root body for one ping-pong run:
// spawn every worker, explicit sync, record elapsed — the closure root's
// exact sequence.
type pingContRoot struct {
	sp      pingSpawner
	out     *sim.Time
	started bool
	synced  bool
	t0      sim.Time
}

//emu:nohandoff CBody contract: park state, never the goroutine
func (r *pingContRoot) Step(t *machine.CThread) bool {
	if !r.started {
		r.started = true
		r.t0 = t.Now()
	}
	if !r.sp.drive(t) {
		return false
	}
	if !r.synced {
		r.synced = true
		if t.CSync() {
			return false
		}
	}
	if r.out != nil {
		*r.out = t.Now() - r.t0
		r.out = nil
	}
	return true
}
