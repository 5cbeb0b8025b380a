package kernels

import (
	"fmt"

	"emuchick/internal/machine"
	"emuchick/internal/sim"
)

// PingPongConfig parameterizes the ping-pong migration microbenchmark of
// section III-E: N threads migrate back and forth between two nodelets
// several thousand times, exposing the migration engine's throughput and
// the per-migration latency.
type PingPongConfig struct {
	Threads    int
	Iterations int // round trips per thread
	NodeletA   int
	NodeletB   int
}

// PingPongResult reports the migration metrics of Fig. 10's bottom panel.
type PingPongResult struct {
	Migrations       uint64
	Elapsed          sim.Time
	MigrationsPerSec float64
	// MeanLatency is elapsed time per migration per thread — with one
	// thread it is the single-migration latency the paper bounds at
	// 1-2 us.
	MeanLatency sim.Time
}

// PingPong runs the microbenchmark on a fresh system built from mcfg.
func PingPong(mcfg machine.Config, cfg PingPongConfig, opts ...RunOption) (PingPongResult, error) {
	if cfg.Threads <= 0 || cfg.Iterations <= 0 {
		return PingPongResult{}, fmt.Errorf("kernels: invalid ping-pong config %+v", cfg)
	}
	if cfg.NodeletA == cfg.NodeletB {
		return PingPongResult{}, fmt.Errorf("kernels: ping-pong needs two distinct nodelets")
	}
	rc := resolveRunConfig(opts)
	sys := newSystemRC(mcfg, &rc)
	if cfg.NodeletA >= sys.Nodelets() || cfg.NodeletB >= sys.Nodelets() {
		return PingPongResult{}, fmt.Errorf("kernels: ping-pong nodelets out of range")
	}
	var out PingPongResult
	var err error
	if rc.engine == goroutineProcs {
		_, err = sys.Run(func(root *machine.Thread) {
			t0 := root.Now()
			for k := 0; k < cfg.Threads; k++ {
				root.SpawnAt(cfg.NodeletA, func(w *machine.Thread) {
					for i := 0; i < cfg.Iterations; i++ {
						w.MigrateTo(cfg.NodeletB)
						w.MigrateTo(cfg.NodeletA)
					}
				})
			}
			root.Sync()
			out.Elapsed = root.Now() - t0
		})
	} else {
		_, err = sys.RunCont(&pingContRoot{sp: pingSpawner{cfg: cfg}, out: &out.Elapsed})
	}
	if err != nil {
		return PingPongResult{}, err
	}
	want := uint64(cfg.Threads) * uint64(cfg.Iterations) * 2
	got := sys.Counters.Nodelet(cfg.NodeletA).MigrationsOut + sys.Counters.Nodelet(cfg.NodeletB).MigrationsOut
	if got != want {
		return PingPongResult{}, fmt.Errorf("kernels: ping-pong migrations %d, want %d", got, want)
	}
	out.Migrations = want
	if out.Elapsed > 0 {
		out.MigrationsPerSec = float64(want) / out.Elapsed.Seconds()
	}
	perThread := want / uint64(cfg.Threads)
	out.MeanLatency = sim.Time(int64(out.Elapsed) / int64(perThread))
	return out, nil
}
