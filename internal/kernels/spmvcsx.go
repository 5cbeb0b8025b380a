package kernels

import (
	"fmt"
	"math"

	"emuchick/internal/cilk"
	"emuchick/internal/machine"
	"emuchick/internal/metrics"
	"emuchick/internal/sim"
	"emuchick/internal/sparse"
)

// SpMVCSX implements the paper's named future-work direction ("new
// state-of-the-art SpMV formats ... such as SparseX, which uses the
// Compressed Sparse eXtended format"): CSR SpMV under the 2D layout, with
// the column-index stream delta-compressed four-to-a-word (sparse.CSX).
// On a machine whose channels move 8-byte words, compressing indices cuts
// the words per nonzero from three (index, value, x) to about 2.3, which
// converts directly into effective bandwidth once the channel is the
// bottleneck.

// csxDecodeCycles is the per-nonzero cost of unpacking a 16-bit delta and
// updating the running column (shift, mask, add).
const csxDecodeCycles = 4

// SpMVCSXConfig parameterizes the compressed-format run.
type SpMVCSXConfig struct {
	GridN    int
	GrainNNZ int
}

// SpMVCSX multiplies the synthetic Laplacian by the same dyadic vector as
// SpMV, using the 2D row partition with packed delta indices, verifies the
// result, and reports effective bandwidth over the SAME useful-byte count
// as the CSR kernels — so its MB/s are directly comparable to Fig. 9a's.
func SpMVCSX(mcfg machine.Config, cfg SpMVCSXConfig, opts ...RunOption) (metrics.Result, error) {
	if cfg.GridN <= 0 || cfg.GrainNNZ <= 0 {
		return metrics.Result{}, fmt.Errorf("kernels: invalid spmv-csx config %+v", cfg)
	}
	m := sparse.Laplacian2D(cfg.GridN)
	x, err := sparse.EncodeCSX(m)
	if err != nil {
		return metrics.Result{}, err
	}
	xv := make([]float64, m.Cols)
	for i := range xv {
		xv[i] = 1 + float64(i%7)*0.125
	}
	want := m.MulVec(xv)

	sys := newSystem(mcfg, opts...)
	nodelets := sys.Nodelets()
	part := sparse.PartitionRows(m, nodelets)

	// Per-nodelet shards: packed delta words, values, and 4-word row
	// metadata (delta offset, value offset, nnz, first column).
	deltaWords := make([]int, nodelets)
	valWords := make([]int, nodelets)
	metaWords := make([]int, nodelets)
	for nl := 0; nl < nodelets; nl++ {
		for _, r := range part.RowsOf[nl] {
			deltaWords[nl] += len(x.DeltaWords[r])
			valWords[nl] += int(x.RowNNZCount[r])
		}
		metaWords[nl] = 4 * len(part.RowsOf[nl])
	}
	dsh := sys.Mem.AllocBlocked(deltaWords)
	vsh := sys.Mem.AllocBlocked(valWords)
	meta := sys.Mem.AllocBlocked(metaWords)
	xs := placeX(sys, xv, false)
	loadX := func(w *machine.Thread, c int) float64 {
		return math.Float64frombits(w.Load(xs.at(w.Nodelet(), c)))
	}
	ya := sys.Mem.AllocLocal(0, m.Rows)

	dOff := make([]int, nodelets)
	vOff := make([]int, nodelets)
	for nl := 0; nl < nodelets; nl++ {
		for slot, r := range part.RowsOf[nl] {
			sys.Mem.Write(meta.At(nl, 4*slot), uint64(dOff[nl]))
			sys.Mem.Write(meta.At(nl, 4*slot+1), uint64(vOff[nl]))
			sys.Mem.Write(meta.At(nl, 4*slot+2), uint64(x.RowNNZCount[r]))
			sys.Mem.Write(meta.At(nl, 4*slot+3), uint64(x.RowFirst[r]))
			for _, w := range x.DeltaWords[r] {
				sys.Mem.Write(dsh.At(nl, dOff[nl]), w)
				dOff[nl]++
			}
			for j := 0; j < int(x.RowNNZCount[r]); j++ {
				sys.Mem.Write(vsh.At(nl, vOff[nl]), math.Float64bits(x.Val[x.RowValOff[r]+int64(j)]))
				vOff[nl]++
			}
		}
	}

	grainRows := cfg.GrainNNZ / 5
	if grainRows < 1 {
		grainRows = 1
	}
	var elapsed sim.Time
	_, err = sys.Run(func(root *machine.Thread) {
		t0 := root.Now()
		for nl := 0; nl < nodelets; nl++ {
			nl := nl
			rows := part.RowsOf[nl]
			if len(rows) == 0 {
				continue
			}
			root.SpawnAt(nl, func(coord *machine.Thread) {
				cilk.ParallelFor(coord, len(rows), grainRows, func(w *machine.Thread, lo, hi int) {
					for slot := lo; slot < hi; slot++ {
						r := rows[slot]
						dBase := w.Load(meta.At(nl, 4*slot))
						vBase := w.Load(meta.At(nl, 4*slot+1))
						cnt := int(w.Load(meta.At(nl, 4*slot+2)))
						col := int64(w.Load(meta.At(nl, 4*slot+3)))
						var sum float64
						var dw uint64
						for j := 0; j < cnt; j++ {
							if j > 0 {
								k := j - 1
								if k%4 == 0 {
									dw = w.Load(dsh.At(nl, int(dBase)+k/4))
								}
								col += int64(dw >> (uint(k) % 4 * 16) & 0xFFFF)
								w.Compute(csxDecodeCycles)
							}
							v := math.Float64frombits(w.Load(vsh.At(nl, int(vBase)+j)))
							sum += v * loadX(w, int(col))
							w.Compute(spmvNNZCycles)
						}
						w.Store(ya.At(r), math.Float64bits(sum)) // posted to nodelet 0
						w.Compute(spmvRowCycles)
					}
				})
			})
		}
		root.Sync()
		elapsed = root.Now() - t0
	})
	if err != nil {
		return metrics.Result{}, err
	}
	for r := 0; r < m.Rows; r++ {
		if got := math.Float64frombits(sys.Mem.Read(ya.At(r))); got != want[r] {
			return metrics.Result{}, fmt.Errorf("kernels: spmv-csx y[%d] = %v, want %v", r, got, want[r])
		}
	}
	if mig := sys.Counters.TotalMigrations(); mig != 0 {
		return metrics.Result{}, fmt.Errorf("kernels: csx layout migrated %d times", mig)
	}
	return metrics.Result{Bytes: m.UsefulBytes(), Elapsed: elapsed}, nil
}
