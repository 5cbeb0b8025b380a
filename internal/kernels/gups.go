package kernels

import (
	"fmt"

	"emuchick/internal/machine"
	"emuchick/internal/memsys"
	"emuchick/internal/metrics"
	"emuchick/internal/workload"
)

// GUPSConfig parameterizes a RandomAccess-style kernel. The paper uses
// GUPS as the nearest relative of pointer chasing ("GUPS lacks
// data-dependent loads, and pointer chase does not modify the list"), so
// the kernel exists both as a comparison workload and as an exercise of
// the memory-side atomic path.
type GUPSConfig struct {
	TableWords int // striped table size in 8-byte words
	Updates    int // total updates to perform
	Threads    int
	Seed       uint64
}

// GUPS performs random read-modify-write updates over a striped table
// using posted memory-side atomics (no thread ever migrates), and reports
// the update bandwidth at 8 bytes per update.
func GUPS(mcfg machine.Config, cfg GUPSConfig, opts ...RunOption) (metrics.Result, error) {
	if cfg.TableWords <= 0 || cfg.Updates <= 0 || cfg.Threads <= 0 {
		return metrics.Result{}, fmt.Errorf("kernels: invalid GUPS config %+v", cfg)
	}
	sys := newSystem(mcfg, opts...)
	table := sys.Mem.AllocStriped(cfg.TableWords)
	stream := workload.GUPSStream(cfg.Updates, cfg.TableWords, workload.NewRNG(cfg.Seed))

	// Reference: count how many times each slot is bumped.
	want := make([]uint64, cfg.TableWords)
	for _, idx := range stream {
		want[idx]++
	}

	nodelets := sys.Nodelets()
	var res metrics.Result
	workers := &spawnEach{n: cfg.Threads, at: func(k int) (int, machine.CBody) {
		lo, hi := share(cfg.Updates, k, cfg.Threads)
		if lo == hi {
			return 0, nil
		}
		return k % nodelets, &gupsWorker{table: table, stream: stream, j: lo, hi: hi}
	}}
	_, err := sys.RunCont(&timedRoot{drive: workers.drive, out: &res.Elapsed})
	if err != nil {
		return metrics.Result{}, err
	}
	for i, w := range want {
		if got := sys.Mem.Read(table.At(i)); got != w {
			return metrics.Result{}, fmt.Errorf("kernels: GUPS slot %d = %d, want %d", i, got, w)
		}
	}
	if m := sys.Counters.TotalMigrations(); m != 0 {
		return metrics.Result{}, fmt.Errorf("kernels: GUPS migrated %d times; atomics must not migrate", m)
	}
	res.Bytes = int64(cfg.Updates) * 8
	return res, nil
}

// gupsWorker applies updates [j, hi) of the stream: one posted atomic add
// and the loop overhead per update.
type gupsWorker struct {
	table  memsys.Striped
	stream []int
	j, hi  int
	added  bool
}

//emu:nohandoff CBody contract: park state, never the goroutine
func (w *gupsWorker) Step(t *machine.CThread) bool {
	for w.j < w.hi {
		if !w.added {
			w.added = true
			if t.CRemoteAdd(w.table.At(w.stream[w.j]), 1) {
				return false
			}
		}
		w.added = false
		w.j++
		if t.CCompute(4) {
			return false
		}
	}
	return true
}
