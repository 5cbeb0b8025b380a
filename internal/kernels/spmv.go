package kernels

import (
	"fmt"
	"math"

	"emuchick/internal/cilk"
	"emuchick/internal/machine"
	"emuchick/internal/memsys"
	"emuchick/internal/metrics"
	"emuchick/internal/sim"
	"emuchick/internal/sparse"
)

// Per-nonzero and per-row instruction overheads of the (untuned) CSR SpMV
// inner loop: floating-point multiply-add and index arithmetic on a simple
// in-order core.
const (
	spmvNNZCycles = 24
	spmvRowCycles = 10
)

// SpMVLayout selects one of the three Emu data layouts of Fig. 3.
type SpMVLayout int

const (
	// SpMVLocal places everything (matrix, x, y) on nodelet 0 with
	// contiguous mallocs — the paper's "local" case, which serializes
	// behind one nodelet's channel and core.
	SpMVLocal SpMVLayout = iota
	// SpMV1D stripes the matrix arrays word-by-word across nodelets
	// (mw_malloc1dlong), replicates x, and keeps y on nodelet 0; a
	// thread migrates on nearly every nonzero.
	SpMV1D
	// SpMV2D uses the paper's custom two-stage allocation: each nodelet
	// holds the values and column indices of its assigned rows
	// contiguously, so no migrations occur within a row.
	SpMV2D
)

// SpMVLayouts lists the three layouts in the paper's order.
var SpMVLayouts = []SpMVLayout{SpMVLocal, SpMV1D, SpMV2D}

// String returns the paper's name for the layout.
func (l SpMVLayout) String() string {
	switch l {
	case SpMVLocal:
		return "local"
	case SpMV1D:
		return "1d"
	case SpMV2D:
		return "2d"
	default:
		return fmt.Sprintf("SpMVLayout(%d)", int(l))
	}
}

// SpMVConfig parameterizes one Emu SpMV run over the synthetic Laplacian.
type SpMVConfig struct {
	// GridN is the stencil grid edge; the matrix is GridN^2 x GridN^2
	// with five diagonals.
	GridN int
	// Layout selects the data placement.
	Layout SpMVLayout
	// GrainNNZ is the number of matrix elements per spawned task (the
	// paper finds 16 most effective on the Emu). Thread concurrency is
	// bounded by the machine's hardware contexts, as on the real Chick.
	GrainNNZ int
	// Nodelets restricts the layout to the first N nodelets; zero means
	// all of them.
	Nodelets int
	// StripeX places the input vector as a 1D-striped array instead of
	// replicating it per nodelet — the ablation of the paper's "smart
	// thread migration" recommendation #2 (replicate common inputs).
	// Only meaningful for the 1D and 2D layouts.
	StripeX bool
}

// SpMV multiplies the Laplacian by a fixed dyadic-valued vector under the
// configured layout, verifies y against the reference MulVec, and reports
// effective bandwidth over the paper's useful-byte count.
func SpMV(mcfg machine.Config, cfg SpMVConfig, opts ...RunOption) (metrics.Result, error) {
	if cfg.GridN <= 0 || cfg.GrainNNZ <= 0 {
		return metrics.Result{}, fmt.Errorf("kernels: invalid spmv config %+v", cfg)
	}
	sys := newSystem(mcfg, opts...)
	nodelets := cfg.Nodelets
	if nodelets == 0 {
		nodelets = sys.Nodelets()
	}
	if nodelets > sys.Nodelets() {
		return metrics.Result{}, fmt.Errorf("kernels: spmv wants %d nodelets, machine has %d",
			nodelets, sys.Nodelets())
	}
	m := sparse.Laplacian2D(cfg.GridN)
	xv := make([]float64, m.Cols)
	for i := range xv {
		xv[i] = 1 + float64(i%7)*0.125 // dyadic values: exact FP arithmetic
	}
	want := m.MulVec(xv)

	// Average Laplacian row has ~5 nonzeros; convert the nnz grain to a
	// row grain.
	grainRows := cfg.GrainNNZ / 5
	if grainRows < 1 {
		grainRows = 1
	}

	var elapsed metricsTime
	var err error
	switch cfg.Layout {
	case SpMVLocal:
		elapsed, err = spmvLocal(sys, m, xv, grainRows)
	case SpMV1D:
		elapsed, err = spmv1D(sys, m, xv, grainRows, nodelets, cfg.StripeX)
	case SpMV2D:
		elapsed, err = spmv2D(sys, m, xv, grainRows, nodelets, cfg.StripeX)
	default:
		return metrics.Result{}, fmt.Errorf("kernels: unknown layout %v", cfg.Layout)
	}
	if err != nil {
		return metrics.Result{}, err
	}
	for r := 0; r < m.Rows; r++ {
		if got := math.Float64frombits(sys.Mem.Read(elapsed.y.At(r))); got != want[r] {
			return metrics.Result{}, fmt.Errorf("kernels: spmv y[%d] = %v, want %v", r, got, want[r])
		}
	}
	if cfg.Layout == SpMV2D && !cfg.StripeX {
		if mig := sys.Counters.TotalMigrations(); mig != 0 {
			return metrics.Result{}, fmt.Errorf("kernels: 2d layout migrated %d times; rows must be migration-free", mig)
		}
	}
	return metrics.Result{Bytes: m.UsefulBytes(), Elapsed: elapsed.t}, nil
}

// metricsTime carries the timed duration plus the y vector handle for
// verification.
type metricsTime struct {
	t sim.Time
	y vector
}

// xVector is the input vector under its placement: one flat copy (local or
// 1D-striped, x[c] at flat.At(c)), or a replica per nodelet, where a thread
// reads the copy on the nodelet it resides on. Replication (the default and
// the paper's recommendation) makes every x read local; striping makes x[c]
// live on nodelet c mod N, so reading it migrates.
type xVector struct {
	flat vector
	rep  memsys.Replicated
}

// at is the address of x[c] for a thread resident on nodelet nl.
func (x *xVector) at(nl, c int) memsys.Addr {
	if x.flat != nil {
		return x.flat.At(c)
	}
	return x.rep.At(nl, c)
}

// placeX allocates and fills x as a striped array (stripeX) or replicated
// on every nodelet.
func placeX(sys *machine.System, xv []float64, stripeX bool) xVector {
	if stripeX {
		xs := sys.Mem.AllocStriped(len(xv))
		for c := range xv {
			sys.Mem.Write(xs.At(c), math.Float64bits(xv[c]))
		}
		return xVector{flat: xs}
	}
	xr := sys.Mem.AllocReplicated(len(xv))
	for c := range xv {
		xr.Broadcast(sys.Mem, c, math.Float64bits(xv[c]))
	}
	return xVector{rep: xr}
}

// spmvRows is what one family of SpMV leaves reads. In the local and 1D
// layouts a leaf's indices are rows, and ext holds the CSR row pointers:
// row i spans [ext[i], ext[i+1]). In the 2D layout the indices are slots
// of one nodelet's shard, ext holds an (offset, count) pair per slot, and
// rows maps a slot to its row of y.
type spmvRows struct {
	ext    vector
	pairs  bool
	ci, vv vector
	x      *xVector
	y      memsys.Local
	rows   []int
}

// leaf builds the body for indices [lo, hi).
func (s *spmvRows) leaf(lo, hi int) machine.CBody {
	return &spmvLeaf{sh: s, i: lo, hi: hi}
}

// spmvLeaf multiplies its rows: per row, two extent loads; per nonzero, a
// column, a value and an x load plus the multiply-add; then the posted y
// store and the row overhead.
type spmvLeaf struct {
	sh     *spmvRows
	i, hi  int
	k, end uint64
	col    int
	v, sum float64
	pc     int
}

//emu:nohandoff CBody contract: park state, never the goroutine
func (w *spmvLeaf) Step(t *machine.CThread) bool {
	s := w.sh
	for {
		switch w.pc {
		case 0: // row head: the row's first extent word
			if w.i >= w.hi {
				return true
			}
			w.pc = 1
			if t.CLoad(s.ext.At(w.extIndex())) {
				return false
			}
		case 1:
			w.k = t.Value()
			w.pc = 2
			if t.CLoad(s.ext.At(w.extIndex() + 1)) {
				return false
			}
		case 2:
			w.end = t.Value()
			if s.pairs {
				w.end += w.k
			}
			w.sum = 0
			w.pc = 3
		case 3: // nonzero head
			if w.k >= w.end {
				row := w.i
				if s.rows != nil {
					row = s.rows[w.i]
				}
				w.pc = 7
				if t.CStore(s.y.At(row), math.Float64bits(w.sum)) {
					return false
				}
				continue
			}
			w.pc = 4
			if t.CLoad(s.ci.At(int(w.k))) {
				return false
			}
		case 4:
			w.col = int(t.Value())
			w.pc = 5
			if t.CLoad(s.vv.At(int(w.k))) {
				return false
			}
		case 5:
			w.v = math.Float64frombits(t.Value())
			w.pc = 6
			if t.CLoad(s.x.at(t.Nodelet(), w.col)) {
				return false
			}
		case 6:
			w.sum += w.v * math.Float64frombits(t.Value())
			w.k++
			w.pc = 3
			if t.CCompute(spmvNNZCycles) {
				return false
			}
		case 7: // y stored: row overhead
			w.i++
			w.pc = 0
			if t.CCompute(spmvRowCycles) {
				return false
			}
		}
	}
}

// extIndex is the index of the current row's first extent word.
func (w *spmvLeaf) extIndex() int {
	if w.sh.pairs {
		return 2 * w.i
	}
	return w.i
}

// runRows runs one timed ParFor over every row of sh from the root thread.
func runRows(sys *machine.System, sh *spmvRows, rows, grainRows int) (sim.Time, error) {
	var elapsed sim.Time
	pf := cilk.NewParFor(rows, grainRows, sh.leaf)
	_, err := sys.RunCont(&timedRoot{drive: pf.Drive, out: &elapsed})
	return elapsed, err
}

// spmvLocal runs the all-on-nodelet-0 layout.
func spmvLocal(sys *machine.System, m *sparse.CSR, xv []float64, grainRows int) (metricsTime, error) {
	rp := sys.Mem.AllocLocal(0, m.Rows+1)
	ci := sys.Mem.AllocLocal(0, m.NNZ())
	vv := sys.Mem.AllocLocal(0, m.NNZ())
	xa := sys.Mem.AllocLocal(0, m.Cols)
	ya := sys.Mem.AllocLocal(0, m.Rows)
	for r := 0; r <= m.Rows; r++ {
		sys.Mem.Write(rp.At(r), uint64(m.RowPtr[r]))
	}
	for k := 0; k < m.NNZ(); k++ {
		sys.Mem.Write(ci.At(k), uint64(m.ColIdx[k]))
		sys.Mem.Write(vv.At(k), math.Float64bits(m.Val[k]))
	}
	for c := range xv {
		sys.Mem.Write(xa.At(c), math.Float64bits(xv[c]))
	}
	x := xVector{flat: xa}
	t, err := runRows(sys, &spmvRows{ext: rp, ci: ci, vv: vv, x: &x, y: ya}, m.Rows, grainRows)
	return metricsTime{t: t, y: ya}, err
}

// spmv1D runs the word-striped layout: matrix arrays striped, x replicated
// (or striped under the ablation), y on nodelet 0. A thread migrates to
// nodelet r mod N for each row pointer; ColIdx and Val share stripe indices,
// so each nonzero is one migration followed by a local load; the y store is
// posted to nodelet 0.
func spmv1D(sys *machine.System, m *sparse.CSR, xv []float64, grainRows, nodelets int, stripeX bool) (metricsTime, error) {
	rp := sys.Mem.AllocStriped(m.Rows + 1)
	ci := sys.Mem.AllocStriped(m.NNZ())
	vv := sys.Mem.AllocStriped(m.NNZ())
	x := placeX(sys, xv, stripeX)
	ya := sys.Mem.AllocLocal(0, m.Rows)
	for r := 0; r <= m.Rows; r++ {
		sys.Mem.Write(rp.At(r), uint64(m.RowPtr[r]))
	}
	for k := 0; k < m.NNZ(); k++ {
		sys.Mem.Write(ci.At(k), uint64(m.ColIdx[k]))
		sys.Mem.Write(vv.At(k), math.Float64bits(m.Val[k]))
	}
	t, err := runRows(sys, &spmvRows{ext: rp, ci: ci, vv: vv, x: &x, y: ya}, m.Rows, grainRows)
	return metricsTime{t: t, y: ya}, err
}

// spmv2D runs the two-stage blocked layout: rows dealt round-robin, each
// nodelet's shard contiguous, per-row (offset, length) metadata local. The
// root spawns one coordinator per populated nodelet, each running a ParFor
// over its shard's slots; only the y stores leave the nodelet (posted to
// nodelet 0).
func spmv2D(sys *machine.System, m *sparse.CSR, xv []float64, grainRows, nodelets int, stripeX bool) (metricsTime, error) {
	part := sparse.PartitionRows(m, nodelets)
	// Shards need padding to the system's nodelet count.
	ciWords := make([]int, sys.Nodelets())
	metaWords := make([]int, sys.Nodelets())
	for nl := 0; nl < nodelets; nl++ {
		ciWords[nl] = part.WordsOf[nl]
		metaWords[nl] = 2 * len(part.RowsOf[nl])
	}
	ci := sys.Mem.AllocBlocked(ciWords)
	vv := sys.Mem.AllocBlocked(ciWords)
	meta := sys.Mem.AllocBlocked(metaWords)
	x := placeX(sys, xv, stripeX)
	ya := sys.Mem.AllocLocal(0, m.Rows)
	for nl := 0; nl < nodelets; nl++ {
		for slot, r := range part.RowsOf[nl] {
			off := part.Offset[r]
			sys.Mem.Write(meta.At(nl, 2*slot), uint64(off))
			sys.Mem.Write(meta.At(nl, 2*slot+1), uint64(m.RowNNZ(r)))
			for j := 0; j < m.RowNNZ(r); j++ {
				k := m.RowPtr[r] + int64(j)
				sys.Mem.Write(ci.At(nl, off+j), uint64(m.ColIdx[k]))
				sys.Mem.Write(vv.At(nl, off+j), math.Float64bits(m.Val[k]))
			}
		}
	}
	coords := &spawnEach{n: nodelets, at: func(nl int) (int, machine.CBody) {
		rows := part.RowsOf[nl]
		if len(rows) == 0 {
			return nl, nil
		}
		sh := &spmvRows{ext: meta.Chunk(nl), pairs: true, ci: ci.Chunk(nl), vv: vv.Chunk(nl), x: &x, y: ya, rows: rows}
		return nl, cilk.NewParFor(len(rows), grainRows, sh.leaf)
	}}
	out := metricsTime{y: ya}
	_, err := sys.RunCont(&timedRoot{drive: coords.drive, out: &out.t})
	return out, err
}
