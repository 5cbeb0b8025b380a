// Package cpukernels implements the paper's benchmarks for the Xeon
// comparison platforms: STREAM ADD and pointer chasing on the Sandy Bridge
// model (sections IV-A/IV-B) and the three SpMV baselines — MKL-like,
// cilk_for-like, and grained cilk_spawn — on the Haswell model (IV-C).
// As on the Emu side, every kernel verifies its functional result.
package cpukernels

import (
	"fmt"

	"emuchick/internal/metrics"
	"emuchick/internal/sim"
	"emuchick/internal/xeon"
)

// StreamConfig parameterizes the CPU STREAM ADD run.
type StreamConfig struct {
	Elements int // array length
	Threads  int
}

// StreamAdd runs c[i] = a[i] + b[i] over 8-byte elements with contiguous
// per-thread partitions — the standard OpenMP/Cilk STREAM decomposition —
// and reports bandwidth at 24 bytes per element.
func StreamAdd(ccfg xeon.Config, cfg StreamConfig) (metrics.Result, error) {
	if cfg.Elements <= 0 || cfg.Threads <= 0 {
		return metrics.Result{}, fmt.Errorf("cpukernels: invalid stream config %+v", cfg)
	}
	sys := xeon.NewSystem(ccfg)
	n := int64(cfg.Elements)
	a := sys.Alloc(n * 8)
	b := sys.Alloc(n * 8)
	c := sys.Alloc(n * 8)

	av := make([]uint64, n)
	bv := make([]uint64, n)
	cv := make([]uint64, n)
	for i := range av {
		av[i] = uint64(i)
		bv[i] = uint64(2 * i)
	}

	run := &streamRun{a: a, b: b, c: c, av: av, bv: bv, cv: cv, elements: cfg.Elements, threads: cfg.Threads}
	elapsed, err := runWorkers(sys, cfg.Threads, run)
	if err != nil {
		return metrics.Result{}, err
	}
	for i := range cv {
		if cv[i] != uint64(3*i) {
			return metrics.Result{}, fmt.Errorf("cpukernels: stream c[%d] = %d", i, cv[i])
		}
	}
	return metrics.Result{Elapsed: elapsed, Bytes: n * 24}, nil
}

// streamRun is one STREAM ADD run's model addresses and arrays.
type streamRun struct {
	a, b, c           int64
	av, bv, cv        []uint64
	elements, threads int
}

func (r *streamRun) worker(w int) xeon.CPUBody {
	lo, hi := share(r.elements, w, r.threads)
	return &streamWorker{run: r, i: int64(lo), hi: int64(hi)}
}

// streamWorker adds its contiguous partition [i, hi) element by element:
// read a[i], read b[i], stream c[i] out, one cycle of work.
type streamWorker struct {
	run   *streamRun
	i, hi int64
	pc    uint8
}

//emu:nohandoff
func (w *streamWorker) Step(t *xeon.CPUThread) bool {
	r := w.run
	for ; w.i < w.hi; w.i++ {
		i := w.i
		switch w.pc {
		case 0:
			w.pc = 1
			if t.CRead(r.a+i*8, 8) {
				return false
			}
			fallthrough
		case 1:
			w.pc = 2
			if t.CRead(r.b+i*8, 8) {
				return false
			}
			fallthrough
		case 2:
			t.WriteNT(r.c+i*8, 8) // tuned STREAM streams the destination
			r.cv[i] = r.av[i] + r.bv[i]
			w.pc = 3
			if t.CCompute(1) {
				return false
			}
		}
		w.pc = 0
	}
	return true
}

// runWorkers runs one worker per id in [0, threads), launched by a spawn
// tree from a Run root, and reports the simulated time from the root's
// start to the tree's join.
func runWorkers(sys *xeon.System, threads int, ws workers) (sim.Time, error) {
	var elapsed sim.Time
	_, err := sys.Run(func(root *xeon.CPUThread) {
		t0 := root.Now()
		root.Await(&spawnTree{hi: threads, ws: ws})
		root.Sync()
		elapsed = root.Now() - t0
	})
	return elapsed, err
}

// workers builds the body of each worker id a spawn tree launches.
type workers interface {
	worker(id int) xeon.CPUBody
}

// spawnTree launches one worker per id in [lo, hi) with a recursive binary
// spawn tree (the Cilk loop skeleton), so launching W workers costs
// O(log W) critical-path spawns rather than W. Step is the recursion's
// caller side made iterative: spawn a subtree over the lower half, carry
// on with the upper half, and spawn the last id's worker. A spawned
// spawnTree coordinates its subtree, which its thread's implicit sync
// joins; a Run root drives one with Await and then syncs.
type spawnTree struct {
	lo, hi int
	ws     workers
}

//emu:nohandoff
func (s *spawnTree) Step(t *xeon.CPUThread) bool {
	for {
		switch n := s.hi - s.lo; {
		case n <= 0:
			return true
		case n == 1:
			id := s.lo
			s.lo = s.hi
			if t.CSpawn(s.ws.worker(id)) {
				return false
			}
		default:
			mid := s.lo + n/2
			lower := &spawnTree{lo: s.lo, hi: mid, ws: s.ws}
			s.lo = mid
			if t.CSpawn(lower) {
				return false
			}
		}
	}
}

// share splits n items into parts pieces, mirroring kernels.share.
func share(n, rank, parts int) (lo, hi int) {
	if parts <= 0 {
		return 0, 0
	}
	base := n / parts
	rem := n % parts
	lo = rank*base + minInt(rank, rem)
	hi = lo + base
	if rank < rem {
		hi++
	}
	return lo, hi
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
