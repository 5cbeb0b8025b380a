// Package kernels implements the paper's four benchmarks against the Emu
// machine model: STREAM ADD with the four spawn strategies (section IV-A),
// block-shuffled pointer chasing (IV-B), CSR SpMV under three data layouts
// (IV-C), and the ping-pong migration microbenchmark (IV-D), plus a
// GUPS-style random-access kernel for comparison. Every kernel verifies its
// functional result against a reference computation before reporting a
// measurement.
package kernels

import (
	"fmt"

	"emuchick/internal/cilk"
	"emuchick/internal/machine"
	"emuchick/internal/memsys"
	"emuchick/internal/metrics"
)

// streamOverheadCycles is the per-element loop overhead of the tuned STREAM
// ADD inner loop (index arithmetic, bounds test, branch) beyond its three
// memory operations.
const streamOverheadCycles = 8

// vector is any allocation addressable by element index; both
// memsys.Local and memsys.Striped satisfy it.
type vector interface {
	At(i int) memsys.Addr
}

// StreamKernel selects one of the four STREAM operations. The paper
// reports ADD; the other three complete McCalpin's suite over the same
// 8-byte integer arrays the Emu port uses.
type StreamKernel int

const (
	// StreamAddKernel computes c[i] = a[i] + b[i] (24 B/element).
	StreamAddKernel StreamKernel = iota
	// StreamCopyKernel computes c[i] = a[i] (16 B/element).
	StreamCopyKernel
	// StreamScaleKernel computes c[i] = 3*a[i] (16 B/element).
	StreamScaleKernel
	// StreamTriadKernel computes c[i] = a[i] + 3*b[i] (24 B/element).
	StreamTriadKernel
)

// StreamKernels lists the suite in McCalpin's order.
var StreamKernels = []StreamKernel{StreamCopyKernel, StreamScaleKernel, StreamAddKernel, StreamTriadKernel}

// String names the kernel as STREAM does.
func (k StreamKernel) String() string {
	switch k {
	case StreamAddKernel:
		return "add"
	case StreamCopyKernel:
		return "copy"
	case StreamScaleKernel:
		return "scale"
	case StreamTriadKernel:
		return "triad"
	default:
		return fmt.Sprintf("StreamKernel(%d)", int(k))
	}
}

// loadsStores reports the kernel's memory operations per element.
func (k StreamKernel) loadsStores() (loads, stores int) {
	switch k {
	case StreamAddKernel, StreamTriadKernel:
		return 2, 1
	default:
		return 1, 1
	}
}

// bytesPerElement is the kernel's STREAM byte accounting.
func (k StreamKernel) bytesPerElement() int64 {
	loads, stores := k.loadsStores()
	return int64(loads+stores) * 8
}

// apply computes the kernel's result for one element.
func (k StreamKernel) apply(a, b uint64) uint64 {
	switch k {
	case StreamAddKernel:
		return a + b
	case StreamCopyKernel:
		return a
	case StreamScaleKernel:
		return 3 * a
	case StreamTriadKernel:
		return a + 3*b
	default:
		panic("kernels: unknown stream kernel")
	}
}

// StreamConfig parameterizes one STREAM run.
type StreamConfig struct {
	// Kernel selects the operation; the zero value is ADD, the kernel
	// the paper reports.
	Kernel StreamKernel
	// ElemsPerNodelet is the array length divided by the nodelet count;
	// total elements = ElemsPerNodelet * Nodelets.
	ElemsPerNodelet int
	// Nodelets is how many nodelets the arrays (and workers) span;
	// 1 reproduces Fig. 4, 8 reproduces Fig. 5.
	Nodelets int
	// Threads is the worker count.
	Threads int
	// Strategy selects the spawn tree.
	Strategy cilk.Strategy
}

// StreamAdd runs the STREAM ADD kernel (c[i] = a[i] + b[i] over 8-byte
// integers, the paper's port); it is Stream with the kernel forced to ADD.
func StreamAdd(mcfg machine.Config, cfg StreamConfig, opts ...RunOption) (metrics.Result, error) {
	cfg.Kernel = StreamAddKernel
	return Stream(mcfg, cfg, opts...)
}

// Stream runs the configured STREAM kernel on a fresh system built from
// mcfg and returns the measured bandwidth result. The measured region
// spans worker creation through the final join, which is what makes the
// spawn strategies of Fig. 5 distinguishable.
func Stream(mcfg machine.Config, cfg StreamConfig, opts ...RunOption) (metrics.Result, error) {
	if cfg.ElemsPerNodelet <= 0 || cfg.Threads <= 0 || cfg.Nodelets <= 0 {
		return metrics.Result{}, fmt.Errorf("kernels: invalid stream config %+v", cfg)
	}
	rc := resolveRunConfig(opts)
	sys := newSystemRC(mcfg, &rc)
	if cfg.Nodelets > sys.Nodelets() {
		return metrics.Result{}, fmt.Errorf("kernels: stream wants %d nodelets, machine has %d",
			cfg.Nodelets, sys.Nodelets())
	}
	n := cfg.ElemsPerNodelet * cfg.Nodelets

	// On one nodelet the arrays are plain local allocations
	// (mw_localmalloc); across nodelets they are striped word by word
	// (mw_malloc1dlong), so element i lives on nodelet i mod N and a
	// worker walking stride N touches only local words.
	var a, b, c vector
	if cfg.Nodelets == 1 {
		a = sys.Mem.AllocLocal(0, n)
		b = sys.Mem.AllocLocal(0, n)
		c = sys.Mem.AllocLocal(0, n)
	} else {
		a = sys.Mem.AllocStriped(n)
		b = sys.Mem.AllocStriped(n)
		c = sys.Mem.AllocStriped(n)
	}
	// index maps (nodelet, slot) to the element a worker on that nodelet
	// processes; with one nodelet elements are simply consecutive.
	index := func(nl, j int) int {
		if cfg.Nodelets == 1 {
			return j
		}
		return nl + j*cfg.Nodelets
	}
	for i := 0; i < n; i++ {
		sys.Mem.Write(a.At(i), uint64(i))
		sys.Mem.Write(b.At(i), uint64(2*i))
	}

	loads, _ := cfg.Kernel.loadsStores()
	var res metrics.Result
	var err error
	if rc.engine == goroutineProcs {
		_, err = sys.Run(func(root *machine.Thread) {
			t0 := root.Now()
			cilk.SpawnWorkers(root, cfg.Nodelets, cfg.Threads, cfg.Strategy, func(w *machine.Thread, id int) {
				// Worker id serves nodelet id mod Nodelets and takes its
				// rank-th contiguous share of that nodelet's stripe.
				nl := id % cfg.Nodelets
				rank := id / cfg.Nodelets
				ranks := (cfg.Threads - nl + cfg.Nodelets - 1) / cfg.Nodelets
				lo, hi := share(cfg.ElemsPerNodelet, rank, ranks)
				for j := lo; j < hi; j++ {
					i := index(nl, j)
					va := w.Load(a.At(i))
					var vb uint64
					if loads == 2 {
						vb = w.Load(b.At(i))
					}
					w.Store(c.At(i), cfg.Kernel.apply(va, vb))
					w.Compute(streamOverheadCycles)
				}
			})
			res.Elapsed = root.Now() - t0
		})
	} else {
		sh := &streamShared{a: a, b: b, c: c, kernel: cfg.Kernel, loads: loads, index: index}
		_, err = sys.RunCont(streamContRoot(cfg, sh, &res.Elapsed))
	}
	if err != nil {
		return metrics.Result{}, err
	}
	res.Bytes = int64(n) * cfg.Kernel.bytesPerElement()

	for i := 0; i < n; i++ {
		want := cfg.Kernel.apply(uint64(i), uint64(2*i))
		if got := sys.Mem.Read(c.At(i)); got != want {
			return metrics.Result{}, fmt.Errorf("kernels: stream %v c[%d] = %d, want %d",
				cfg.Kernel, i, got, want)
		}
	}
	return res, nil
}

// share splits n items into parts pieces and returns the half-open range of
// piece rank (earlier pieces take the remainder).
func share(n, rank, parts int) (lo, hi int) {
	if parts <= 0 {
		return 0, 0
	}
	base := n / parts
	rem := n % parts
	lo = rank*base + min(rank, rem)
	hi = lo + base
	if rank < rem {
		hi++
	}
	return lo, hi
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
