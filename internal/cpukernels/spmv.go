package cpukernels

import (
	"fmt"

	"emuchick/internal/metrics"
	"emuchick/internal/sparse"
	"emuchick/internal/xeon"
)

// SpMVVariant selects one of the three Haswell baselines of Fig. 9b.
type SpMVVariant int

const (
	// SpMVMKL models Intel MKL's tuned CSR kernel: static row partition,
	// tight inner loop, 4-byte column indices.
	SpMVMKL SpMVVariant = iota
	// SpMVCilkFor models a cilk_for row loop: static chunking with a
	// slightly heavier inner loop than MKL.
	SpMVCilkFor
	// SpMVCilkSpawn models the grained cilk_spawn kernel whose
	// performance "depends largely on grain size" — each task of
	// GrainNNZ elements pays the runtime's spawn overhead.
	SpMVCilkSpawn
)

// SpMVVariants lists the three baselines in the paper's order.
var SpMVVariants = []SpMVVariant{SpMVMKL, SpMVCilkFor, SpMVCilkSpawn}

// String returns the paper's label for the variant.
func (v SpMVVariant) String() string {
	switch v {
	case SpMVMKL:
		return "mkl"
	case SpMVCilkFor:
		return "cilk_for"
	case SpMVCilkSpawn:
		return "cilk_spawn"
	default:
		return fmt.Sprintf("SpMVVariant(%d)", int(v))
	}
}

// Per-nonzero compute costs: MKL's kernel is vectorized and tight; the
// Cilk kernels are scalar compiles of the plain loop.
const (
	mklNNZCycles  = 2
	cilkNNZCycles = 4
)

// SpMVConfig parameterizes one CPU SpMV run.
type SpMVConfig struct {
	GridN    int
	Variant  SpMVVariant
	Threads  int // the paper uses 56 (physical cores)
	GrainNNZ int // cilk_spawn only; the paper's best CPU grain is 16384
}

// SpMV multiplies the synthetic Laplacian by a dyadic vector on the CPU
// model, verifies the result, and reports effective bandwidth over the
// paper's useful-byte count.
func SpMV(ccfg xeon.Config, cfg SpMVConfig) (metrics.Result, error) {
	if cfg.GridN <= 0 || cfg.Threads <= 0 {
		return metrics.Result{}, fmt.Errorf("cpukernels: invalid spmv config %+v", cfg)
	}
	if cfg.Variant == SpMVCilkSpawn && cfg.GrainNNZ <= 0 {
		return metrics.Result{}, fmt.Errorf("cpukernels: cilk_spawn needs a positive grain")
	}
	m := sparse.Laplacian2D(cfg.GridN)
	xv := make([]float64, m.Cols)
	for i := range xv {
		xv[i] = 1 + float64(i%7)*0.125
	}
	want := m.MulVec(xv)

	sys := xeon.NewSystem(ccfg)
	// Model addresses. MKL uses 4-byte column indices; the Cilk kernels
	// compile with 8-byte ones.
	run := &spmvRun{m: m, xv: xv, yv: make([]float64, m.Rows), idxBytes: 8, nnzCycles: cilkNNZCycles}
	if cfg.Variant == SpMVMKL {
		run.idxBytes = 4
		run.nnzCycles = mklNNZCycles
	}
	nnz := int64(m.NNZ())
	run.rpA = sys.Alloc(int64(m.Rows+1) * 8)
	run.ciA = sys.Alloc(nnz * run.idxBytes)
	run.vvA = sys.Alloc(nnz * 8)
	run.xA = sys.Alloc(int64(m.Cols) * 8)
	run.yA = sys.Alloc(int64(m.Rows) * 8)

	var res metrics.Result
	_, err := sys.Run(func(root *xeon.CPUThread) {
		t0 := root.Now()
		switch cfg.Variant {
		case SpMVMKL, SpMVCilkFor:
			// Static partition of rows over the worker pool.
			for w := 0; w < cfg.Threads; w++ {
				lo, hi := share(m.Rows, w, cfg.Threads)
				if lo == hi {
					continue
				}
				root.Spawn(&rowRange{run: run, r: lo, hi: hi})
			}
			root.Sync()
		case SpMVCilkSpawn:
			// Grained recursive spawn over rows; every task pays the
			// Cilk runtime's spawn cost.
			grainRows := cfg.GrainNNZ / 5
			if grainRows < 1 {
				grainRows = 1
			}
			root.Await(&parFor{run: run, lo: 0, hi: m.Rows, grain: grainRows})
			root.Sync()
		default:
			panic(fmt.Sprintf("cpukernels: unknown variant %v", cfg.Variant))
		}
		res.Elapsed = root.Now() - t0
	})
	if err != nil {
		return metrics.Result{}, err
	}
	for r, y := range run.yv {
		if y != want[r] {
			return metrics.Result{}, fmt.Errorf("cpukernels: spmv y[%d] = %v, want %v", r, y, want[r])
		}
	}
	res.Bytes = m.UsefulBytes()
	return res, nil
}

// spmvRun is one SpMV run's matrix, vectors and model addresses.
type spmvRun struct {
	m                     *sparse.CSR
	xv, yv                []float64
	rpA, ciA, vvA, xA, yA int64
	idxBytes, nnzCycles   int64
}

// rowRange computes rows [r, hi) of y: per row, read its two row pointers;
// per nonzero, read the column index, the value and x[col], then the
// variant's per-nonzero cycles; then write y[r] and four cycles of work.
type rowRange struct {
	run   *spmvRun
	r, hi int
	k     int64 // next nonzero of row r
	sum   float64
	pc    uint8
}

//emu:nohandoff
func (w *rowRange) Step(t *xeon.CPUThread) bool {
	s := w.run
	m := s.m
	for w.r < w.hi {
		switch w.pc {
		case 0: // row start
			w.k = m.RowPtr[w.r]
			w.sum = 0
			w.pc = 1
			if t.CRead(s.rpA+int64(w.r)*8, 16) { // rowptr[r] and rowptr[r+1]
				return false
			}
		case 1: // next nonzero, or the row's result
			if w.k == m.RowPtr[w.r+1] {
				w.pc = 5
				if t.CWrite(s.yA+int64(w.r)*8, 8) {
					return false
				}
				continue
			}
			w.pc = 2
			if t.CRead(s.ciA+w.k*s.idxBytes, s.idxBytes) {
				return false
			}
		case 2:
			w.pc = 3
			if t.CRead(s.vvA+w.k*8, 8) {
				return false
			}
		case 3:
			w.pc = 4
			if t.CRead(s.xA+m.ColIdx[w.k]*8, 8) {
				return false
			}
		case 4:
			w.sum += m.Val[w.k] * s.xv[m.ColIdx[w.k]]
			w.k++
			w.pc = 1
			if t.CCompute(s.nnzCycles) {
				return false
			}
		case 5:
			s.yv[w.r] = w.sum
			w.pc = 6
			if t.CCompute(4) {
				return false
			}
		case 6:
			w.pc = 0
			w.r++
		}
	}
	return true
}

// parFor splits rows [lo, hi) into tasks of at most grain rows, like a
// Cilk loop skeleton built from cilk_spawn: spawn a parFor over the left
// half, recurse on the right, and run the last task's rows inline. Step is
// the recursion made iterative, as for spawnTree; a spawned parFor's
// implicit sync joins its subtree.
type parFor struct {
	run           *spmvRun
	lo, hi, grain int
	inline        bool
	rows          rowRange
}

//emu:nohandoff
func (p *parFor) Step(t *xeon.CPUThread) bool {
	for !p.inline {
		if p.hi-p.lo <= p.grain {
			p.inline = true
			p.rows = rowRange{run: p.run, r: p.lo, hi: p.hi}
			break
		}
		mid := p.lo + (p.hi-p.lo)/2
		left := &parFor{run: p.run, lo: p.lo, hi: mid, grain: p.grain}
		p.lo = mid
		if t.CSpawn(left) {
			return false
		}
	}
	return p.rows.Step(t)
}
