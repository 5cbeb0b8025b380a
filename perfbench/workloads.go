package main

import (
	"fmt"

	"emuchick/internal/cilk"
	"emuchick/internal/cpukernels"
	"emuchick/internal/jobspec"
	"emuchick/internal/kernels"
	"emuchick/internal/workload"
	"emuchick/internal/xeon"
)

// A workload is a fixed, seed-generated list of cells. Every cell runs once
// per direct pass; cells with a spec are also submitted to the in-process
// job server once per served round (on a fresh data directory, so each is
// cold exactly once per round), with the rest of the round's traffic
// resubmitting specs the same client already completed.
type workloadDef struct {
	name  string
	cells []cell
	// clients is the number of closed-loop clients in a served round.
	clients int
	// hitsPerCold is how many cache-hit resubmits a client interleaves per
	// cold submit in a served round.
	hitsPerCold int
}

// cell is one operation of a direct pass.
type cell struct {
	name string
	// layer names the span around the call and the per-layer metric the
	// call's host time feeds: kernels.<kernel>, cpukernels.<kernel>, or
	// experiments.run.
	layer string
	// spec is the job the cell runs (Emu kernel or experiment); zero for
	// Xeon cells, which the job server cannot express.
	spec jobspec.Spec
	// xeonRun runs a Xeon cell and returns [bytes, elapsed_ps] plus the
	// DRAM line bytes when the kernel reports them.
	xeonRun func() ([]float64, int64, error)
	// client is the serving client that submits this cell's spec.
	client int
}

func (c cell) served() bool { return c.xeonRun == nil }

const (
	emuMigratory = "emu-migratory"
	sparseXeon   = "sparse-xeon"
	serveMixed   = "serve-mixed"
)

var workloadNames = []string{emuMigratory, sparseXeon, serveMixed}

// buildWorkload generates a workload's cells from the seed. Every generated
// input — chase and GUPS seeds, the serve-mixed kernel parameters and
// experiment picks — comes from this seed; the program sees only the
// resulting specs and configs.
func buildWorkload(name string, seed uint64) (*workloadDef, error) {
	rng := newRNG(seed, name)
	var w *workloadDef
	switch name {
	case emuMigratory:
		w = emuMigratoryCells(rng)
	case sparseXeon:
		w = sparseXeonCells(rng)
	case serveMixed:
		w = serveMixedCells(rng)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	served := 0
	for i := range w.cells {
		if w.cells[i].served() {
			w.cells[i].client = served % w.clients
			served++
		}
	}
	return w, nil
}

func kernelCell(name, kernel string, m jobspec.Machine, p kernels.Params) cell {
	return cell{name: name, layer: "kernels." + kernel,
		spec: jobspec.Spec{Kernel: kernel, Machine: m, Params: p}}
}

var hw = jobspec.Machine{Name: "hw"}

// emuMigratoryCells: the kernels already ported to the continuation engine
// (Figs. 4-6, section IV-D ping-pong, Fig. 11).
func emuMigratoryCells(rng *rng) *workloadDef {
	// One client: cache hits never wait behind a cold simulation. Three
	// hits per cold submit keep the round's time mostly simulation: a hit
	// waits on an fsync and several goroutine wake-ups, whose cost swings
	// with the host's load far more than computation does.
	w := &workloadDef{name: emuMigratory, clients: 1, hitsPerCold: 3}
	for _, nl := range []int{1, 8} {
		for _, s := range cilk.Strategies {
			w.cells = append(w.cells, kernelCell(fmt.Sprintf("stream/nl%d/%s", nl, s), "stream", hw,
				kernels.Params{Elems: 1024, Nodelets: nl, Threads: 64 * nl, Strategy: s.String()}))
		}
	}
	for _, block := range []int{1, 64} {
		w.cells = append(w.cells, kernelCell(fmt.Sprintf("chase/nl8/block%d", block), "chase", hw,
			kernels.Params{Elems: 16384, Block: block, Mode: workload.FullBlockShuffle.String(),
				Seed: rng.seed(), Threads: 512, Nodelets: 8}))
	}
	w.cells = append(w.cells, kernelCell("pingpong/nl0-nl1", "pingpong", hw,
		kernels.Params{Threads: 64, Iters: 500, NodeletA: 0, NodeletB: 1}))
	w.cells = append(w.cells, kernelCell("chase/fullspeed64/block128", "chase",
		jobspec.Machine{Name: "fullspeed", Nodes: 8},
		kernels.Params{Elems: 65536, Block: 128, Mode: workload.FullBlockShuffle.String(),
			Seed: rng.seed(), Threads: 4096, Nodelets: 64}))
	return w
}

// sparseXeonCells: the kernels still on the goroutine shim plus the Xeon
// cache/DRAM model (Figs. 7, 9a, 9b and GUPS).
func sparseXeonCells(rng *rng) *workloadDef {
	// Only four served specs: a higher hit share gives the hit latency
	// percentiles enough samples per run.
	w := &workloadDef{name: sparseXeon, clients: 1, hitsPerCold: 30}
	for _, layout := range []string{"2d", "1d", "local"} {
		w.cells = append(w.cells, kernelCell("spmv/n100/"+layout, "spmv", hw,
			kernels.Params{GridN: 100, Layout: layout, Grain: 16}))
	}
	w.cells = append(w.cells, kernelCell("gups/4096w", "gups", hw,
		kernels.Params{Elems: 4096, Updates: 16384, Threads: 64, Seed: rng.seed()}))
	// Block 1 over 2^21 elements of 16 B (32 MiB, past the 20 MiB last-level
	// cache) wastes most of every fetched line; block 512 is one 8 KiB DRAM
	// page, over a cache-resident 4 MiB list to keep the pass short.
	for _, c := range []struct{ block, elems int }{{1, 1 << 21}, {512, 1 << 18}} {
		block := c.block
		cfg := cpukernels.ChaseConfig{Elements: c.elems, BlockSize: block,
			Mode: workload.FullBlockShuffle, Seed: rng.seed(), Threads: 32}
		w.cells = append(w.cells, cell{name: fmt.Sprintf("xeon-chase/sandybridge/block%d", block),
			layer: "cpukernels.chase",
			xeonRun: func() ([]float64, int64, error) {
				res, st, err := cpukernels.PointerChaseWithStats(xeon.SandyBridgeXeon(), cfg)
				return []float64{float64(res.Bytes), float64(res.Elapsed)}, st.DRAMLineBytes, err
			}})
	}
	for _, v := range []cpukernels.SpMVConfig{
		{GridN: 100, Variant: cpukernels.SpMVMKL, Threads: 56},
		{GridN: 100, Variant: cpukernels.SpMVCilkSpawn, Threads: 56, GrainNNZ: 16384},
	} {
		cfg := v
		w.cells = append(w.cells, cell{name: "xeon-spmv/haswell/" + cfg.Variant.String(),
			layer: "cpukernels.spmv",
			xeonRun: func() ([]float64, int64, error) {
				res, err := cpukernels.SpMV(xeon.HaswellXeon(), cfg)
				return []float64{float64(res.Bytes), float64(res.Elapsed)}, 0, err
			}})
	}
	return w
}

// serveMixedCells: 20 small kernel jobs and 4 quick-scale experiment jobs,
// 12 per client. The mix and sizes are fixed so that every seed costs the
// same; the seed draws the kernels' own seeds (a fresh fingerprint even for
// kernels that ignore theirs).
func serveMixedCells(rng *rng) *workloadDef {
	w := &workloadDef{name: serveMixed, clients: 2, hitsPerCold: 9}
	for i := 0; i < 20; i++ {
		seed := rng.seed()
		var c cell
		switch i % 4 {
		case 0:
			block := []int{1, 4, 16, 64}[i/4%4]
			c = kernelCell(fmt.Sprintf("k%02d/chase/block%d", i, block), "chase", hw, kernels.Params{
				Elems: 2048, Block: block, Mode: workload.FullBlockShuffle.String(),
				Seed: seed, Threads: 64, Nodelets: 8})
		case 1:
			c = kernelCell(fmt.Sprintf("k%02d/gups", i), "gups", hw, kernels.Params{
				Elems: 2048, Updates: 2048, Threads: 32, Seed: seed})
		case 2:
			nl := []int{1, 2, 4, 8}[i/4%4]
			c = kernelCell(fmt.Sprintf("k%02d/stream/nl%d", i, nl), "stream", hw, kernels.Params{
				Elems: 256, Nodelets: nl, Threads: 16 * nl,
				Strategy: cilk.Strategies[i/4%4].String(), Seed: seed})
		default:
			c = kernelCell(fmt.Sprintf("k%02d/pingpong", i), "pingpong", hw, kernels.Params{
				Threads: 16, Iters: 100, NodeletA: 0, NodeletB: 1, Seed: seed})
		}
		w.cells = append(w.cells, c)
	}
	// Experiments whose quick-scale sweep takes milliseconds, so cold
	// experiment jobs put jobspec -> experiments -> checkpoint -> store on
	// the cold path without dominating the round.
	for i, x := range []struct {
		id     string
		trials int
	}{{"fig4", 2}, {"fig5", 1}, {"migration-anchors", 1}, {"ablation-spawn-locality", 1}} {
		w.cells = append(w.cells, cell{name: fmt.Sprintf("x%02d/%s/trials%d", i, x.id, x.trials),
			layer: "experiments.run",
			spec:  jobspec.Spec{Experiment: x.id, Scale: jobspec.ScaleQuick, Trials: x.trials}})
	}
	return w
}

// rng is splitmix64, owned by the benchmark so generated inputs do not
// depend on any generator inside the program under test.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	r := &rng{s: seed}
	for _, b := range []byte(stream) {
		r.s = r.s*0x100000001b3 ^ uint64(b)
	}
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// seed returns a kernel seed in [1, 2^31): never 0, which the kernels'
// parameter vocabulary reads as "unset".
func (r *rng) seed() uint64 { return 1 + r.next()%(1<<31-1) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
