package cpukernels

import (
	"fmt"

	"emuchick/internal/metrics"
	"emuchick/internal/workload"
	"emuchick/internal/xeon"
)

// ChaseConfig parameterizes the CPU pointer-chasing run: the same
// block-shuffled lists as the Emu kernel, laid out contiguously (16 bytes
// per element) in one allocation, split into one chain per thread.
type ChaseConfig struct {
	Elements  int
	BlockSize int
	Mode      workload.ShuffleMode
	Seed      uint64
	Threads   int
}

// ChaseStats exposes the memory-system event counts of a CPU chase run,
// feeding section V-B's proposed comparison metric ("cache misses avoided"
// is the inverse of the overfetch measured here).
type ChaseStats struct {
	DRAMLineBytes  int64 // bytes fetched from memory (64 B per line)
	WritebackBytes int64
}

// PointerChase walks the chains concurrently. Each element visit reads its
// 16 bytes (payload + next pointer); on the cache model that transfers a
// full 64-byte line on a miss — the inefficiency the paper highlights —
// while the traversal order determines line reuse, DRAM row locality, and
// whether the prefetcher can engage.
func PointerChase(ccfg xeon.Config, cfg ChaseConfig) (metrics.Result, error) {
	res, _, err := PointerChaseWithStats(ccfg, cfg)
	return res, err
}

// PointerChaseWithStats is PointerChase plus the run's DRAM traffic.
func PointerChaseWithStats(ccfg xeon.Config, cfg ChaseConfig) (metrics.Result, ChaseStats, error) {
	if cfg.Elements <= 0 || cfg.BlockSize <= 0 || cfg.Threads <= 0 {
		return metrics.Result{}, ChaseStats{}, fmt.Errorf("cpukernels: invalid chase config %+v", cfg)
	}
	sys := xeon.NewSystem(ccfg)
	n := cfg.Elements
	base := sys.Alloc(int64(n) * 16)

	order := workload.ListOrder(n, cfg.BlockSize, cfg.Mode, workload.NewRNG(cfg.Seed))
	payload := make([]uint64, n)
	next := make([]int32, n) // -1 terminates
	starts := make([]int, cfg.Threads)
	expect := make([]uint64, cfg.Threads)
	counts := make([]int, cfg.Threads)
	for k := 0; k < cfg.Threads; k++ {
		lo, hi := share(n, k, cfg.Threads)
		counts[k] = hi - lo
		if lo == hi {
			continue
		}
		starts[k] = order[lo]
		for j := lo; j < hi; j++ {
			p := order[j]
			payload[p] = uint64(p) + 1
			expect[k] += uint64(p) + 1
			if j+1 < hi {
				next[p] = int32(order[j+1])
			} else {
				next[p] = -1
			}
		}
	}

	run := &chaseRun{base: base, payload: payload, next: next, starts: starts, counts: counts,
		sums: make([]uint64, cfg.Threads)}
	elapsed, err := runWorkers(sys, cfg.Threads, run)
	if err != nil {
		return metrics.Result{}, ChaseStats{}, err
	}
	for k, sum := range run.sums {
		if sum != expect[k] {
			return metrics.Result{}, ChaseStats{}, fmt.Errorf("cpukernels: chase thread %d sum %d, want %d", k, sum, expect[k])
		}
	}
	stats := ChaseStats{
		DRAMLineBytes:  int64(sys.DRAMLines) * int64(ccfg.LineBytes),
		WritebackBytes: int64(sys.WritebackLines) * int64(ccfg.LineBytes),
	}
	return metrics.Result{Elapsed: elapsed, Bytes: int64(n) * 16}, stats, nil
}

// chaseRun is one chase run's lists: chain k starts at starts[k] and holds
// counts[k] elements, and its worker stores the payload sum in sums[k].
type chaseRun struct {
	base    int64
	payload []uint64
	next    []int32 // -1 terminates
	starts  []int
	counts  []int
	sums    []uint64
}

func (r *chaseRun) worker(k int) xeon.CPUBody {
	return &chaseWorker{run: r, k: k, p: r.starts[k]}
}

// chaseWorker walks chain k: read the element's 16 bytes, add its payload,
// four cycles of work, follow next. It loads the element's payload and
// next link on the host before booking the model read, so the two host
// cache misses overlap each other and the model's own cache probes.
type chaseWorker struct {
	run  *chaseRun
	k, p int
	pay  uint64 // payload[p]
	nxt  int32  // next[p]
	sum  uint64
	pc   uint8
}

//emu:nohandoff
func (w *chaseWorker) Step(t *xeon.CPUThread) bool {
	r := w.run
	if r.counts[w.k] == 0 {
		return true
	}
	for {
		switch w.pc {
		case 0:
			w.pay, w.nxt = r.payload[w.p], r.next[w.p]
			w.pc = 1
			if t.CRead(r.base+int64(w.p)*16, 16) {
				return false
			}
			fallthrough
		case 1:
			w.sum += w.pay
			w.pc = 2
			if t.CCompute(4) {
				return false
			}
		}
		w.pc = 0
		if w.nxt < 0 {
			r.sums[w.k] = w.sum
			return true
		}
		w.p = int(w.nxt)
	}
}
