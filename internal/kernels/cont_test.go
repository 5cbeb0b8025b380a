package kernels

import (
	"testing"

	"emuchick/internal/cilk"
	"emuchick/internal/machine"
	"emuchick/internal/workload"
)

// Kernel-level engine equivalence: each ported kernel must report the exact
// same simulated elapsed time (and thus bandwidth/latency figures) on the
// goroutine and continuation engines, across every spawn strategy and both
// machine configurations the paper's figures use.

func TestStreamEnginesAgreeAllStrategies(t *testing.T) {
	for _, strat := range cilk.Strategies {
		for _, nodelets := range []int{1, 8} {
			cfg := StreamConfig{ElemsPerNodelet: 64, Nodelets: nodelets, Threads: 13, Strategy: strat}
			g, err := StreamAdd(machine.HardwareChick(), cfg, withProcEngine(goroutineProcs))
			if err != nil {
				t.Fatalf("%v/%dnl goroutine: %v", strat, nodelets, err)
			}
			c, err := StreamAdd(machine.HardwareChick(), cfg, withProcEngine(continuationProcs))
			if err != nil {
				t.Fatalf("%v/%dnl continuation: %v", strat, nodelets, err)
			}
			if g != c {
				t.Errorf("%v/%dnl: goroutine %+v, continuation %+v", strat, nodelets, g, c)
			}
		}
	}
}

func TestStreamEnginesAgreeAllKernels(t *testing.T) {
	for _, k := range StreamKernels {
		cfg := StreamConfig{Kernel: k, ElemsPerNodelet: 32, Nodelets: 8, Threads: 16, Strategy: cilk.RecursiveRemoteSpawn}
		g, err := Stream(machine.HardwareChick(), cfg, withProcEngine(goroutineProcs))
		if err != nil {
			t.Fatalf("%v goroutine: %v", k, err)
		}
		c, err := Stream(machine.HardwareChick(), cfg, withProcEngine(continuationProcs))
		if err != nil {
			t.Fatalf("%v continuation: %v", k, err)
		}
		if g != c {
			t.Errorf("%v: goroutine %+v, continuation %+v", k, g, c)
		}
	}
}

func TestChaseEnginesAgree(t *testing.T) {
	for _, mode := range []workload.ShuffleMode{workload.NoShuffle, workload.BlockShuffle, workload.FullBlockShuffle} {
		cfg := ChaseConfig{Elements: 256, BlockSize: 16, Mode: mode, Seed: 7, Threads: 9, Nodelets: 8}
		g, gs, err := PointerChaseWithStats(machine.HardwareChick(), cfg, withProcEngine(goroutineProcs))
		if err != nil {
			t.Fatalf("%v goroutine: %v", mode, err)
		}
		c, cs, err := PointerChaseWithStats(machine.HardwareChick(), cfg, withProcEngine(continuationProcs))
		if err != nil {
			t.Fatalf("%v continuation: %v", mode, err)
		}
		if g != c || gs != cs {
			t.Errorf("%v: goroutine %+v/%+v, continuation %+v/%+v", mode, g, gs, c, cs)
		}
	}
}

func TestPingPongEnginesAgree(t *testing.T) {
	for _, threads := range []int{1, 4, 16} {
		cfg := PingPongConfig{Threads: threads, Iterations: 25, NodeletA: 0, NodeletB: 5}
		g, err := PingPong(machine.SimMatched(), cfg, withProcEngine(goroutineProcs))
		if err != nil {
			t.Fatalf("threads=%d goroutine: %v", threads, err)
		}
		c, err := PingPong(machine.SimMatched(), cfg, withProcEngine(continuationProcs))
		if err != nil {
			t.Fatalf("threads=%d continuation: %v", threads, err)
		}
		if g != c {
			t.Errorf("threads=%d: goroutine %+v, continuation %+v", threads, g, c)
		}
	}
}
