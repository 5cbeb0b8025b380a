package cpukernels

import (
	"fmt"

	"emuchick/internal/metrics"
	"emuchick/internal/workload"
	"emuchick/internal/xeon"
)

// GUPSConfig parameterizes the CPU RandomAccess-style kernel, the
// counterpart of kernels.GUPS for the Xeon models.
type GUPSConfig struct {
	TableWords int
	Updates    int
	Threads    int
	Seed       uint64
}

// GUPS performs random read-modify-write updates over a contiguous table.
// On the cache model each out-of-cache update fetches a full 64-byte line
// to touch 8 bytes — the same line-utilization penalty pointer chasing
// exposes, minus the data-dependent serialization.
func GUPS(ccfg xeon.Config, cfg GUPSConfig) (metrics.Result, error) {
	if cfg.TableWords <= 0 || cfg.Updates <= 0 || cfg.Threads <= 0 {
		return metrics.Result{}, fmt.Errorf("cpukernels: invalid GUPS config %+v", cfg)
	}
	sys := xeon.NewSystem(ccfg)
	base := sys.Alloc(int64(cfg.TableWords) * 8)
	stream := workload.GUPSStream(cfg.Updates, cfg.TableWords, workload.NewRNG(cfg.Seed))
	table := make([]uint64, cfg.TableWords)

	want := make([]uint64, cfg.TableWords)
	for _, idx := range stream {
		want[idx]++
	}

	run := &gupsRun{base: base, stream: stream, table: table, updates: cfg.Updates, threads: cfg.Threads}
	elapsed, err := runWorkers(sys, cfg.Threads, run)
	if err != nil {
		return metrics.Result{}, err
	}
	for i := range want {
		if table[i] != want[i] {
			return metrics.Result{}, fmt.Errorf("cpukernels: GUPS slot %d = %d, want %d", i, table[i], want[i])
		}
	}
	return metrics.Result{Elapsed: elapsed, Bytes: int64(cfg.Updates) * 8}, nil
}

// gupsRun is one GUPS run's table and update stream.
type gupsRun struct {
	base             int64
	stream           []int
	table            []uint64
	updates, threads int
}

func (r *gupsRun) worker(w int) xeon.CPUBody {
	lo, hi := share(r.updates, w, r.threads)
	return &gupsWorker{run: r, j: lo, hi: hi}
}

// gupsWorker applies updates [j, hi) of the stream: read the slot, bump it,
// write it back, two cycles of work.
type gupsWorker struct {
	run   *gupsRun
	j, hi int
	pc    uint8
}

//emu:nohandoff
func (w *gupsWorker) Step(t *xeon.CPUThread) bool {
	r := w.run
	for ; w.j < w.hi; w.j++ {
		idx := r.stream[w.j]
		addr := r.base + int64(idx)*8
		switch w.pc {
		case 0:
			w.pc = 1
			if t.CRead(addr, 8) {
				return false
			}
			fallthrough
		case 1:
			r.table[idx]++ // single functional writer per run; timing below
			w.pc = 2
			if t.CWrite(addr, 8) {
				return false
			}
			fallthrough
		case 2:
			w.pc = 3
			if t.CCompute(2) {
				return false
			}
		}
		w.pc = 0
	}
	return true
}
