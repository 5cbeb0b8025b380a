package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"emuchick/internal/experiments"
	"emuchick/internal/jobserver"
	"emuchick/internal/jobspec"
	"emuchick/internal/kernels"
	"emuchick/internal/report"
	"emuchick/internal/trace"
)

// outcome is everything a cell's output is checked on.
type outcome struct {
	// values is the kernel Measurement vector (or [bytes, elapsed_ps] for a
	// Xeon cell); nil for experiments, which are checked by result bytes.
	values []float64
	// dramLineBytes is the Xeon chase's DRAM traffic (0 elsewhere).
	dramLineBytes int64
	// counts are the machine events a counting observer saw; nil when the
	// cell ran without one.
	counts *machineCounts
	// result is the byte payload the job server must return for the cell's
	// spec, encoded from the direct run exactly as the server encodes it.
	result []byte
	// hostNs is the host wall time of the call.
	hostNs int64
	// err is the call's error; an errored cell is a failed operation.
	err error
}

type machineCounts struct {
	Migrations uint64 `json:"migrations"`
	MemOps     uint64 `json:"mem_ops"`
	Spawns     uint64 `json:"spawns"`
}

// counter is the benchmark's trace.Observer: it counts machine events.
type counter struct{ c machineCounts }

func (o *counter) Event(e trace.Event) {
	switch e.Kind {
	case trace.KindMigrate:
		o.c.Migrations++
	case trace.KindLoad, trace.KindStore, trace.KindRemoteStore, trace.KindAtomic:
		o.c.MemOps++
	case trace.KindSpawn:
		o.c.Spawns++
	}
}

func (o *counter) Sample(trace.Sample) {}

// runCell runs one cell through the program's public entry points. With
// count set, Emu kernels run with a counting observer attached.
func runCell(c cell, count bool) outcome {
	start := time.Now()
	var out outcome
	var err error
	switch {
	case c.xeonRun != nil:
		out.values, out.dramLineBytes, err = c.xeonRun()
	case c.spec.Experiment != "":
		out.result, err = runExperiment(c.spec)
	default:
		out, err = runKernel(c.spec, count)
	}
	out.hostNs = time.Since(start).Nanoseconds()
	if err != nil {
		out.err = fmt.Errorf("%s: %w", c.name, err)
	}
	return out
}

func runKernel(spec jobspec.Spec, count bool) (outcome, error) {
	k, cfg, params, err := spec.KernelPlan()
	if err != nil {
		return outcome{}, err
	}
	var opts []kernels.RunOption
	var obs *counter
	if count {
		obs = &counter{}
		opts = append(opts, kernels.WithObserver(obs))
	}
	m, err := k.Run(cfg, params, opts...)
	if err != nil {
		return outcome{}, err
	}
	out := outcome{values: m.Values}
	if obs != nil {
		out.counts = &obs.c
	}
	out.result, err = encodeResult(spec, nil, &m)
	return out, err
}

func runExperiment(spec jobspec.Spec) ([]byte, error) {
	e, err := experiments.ByID(spec.Experiment)
	if err != nil {
		return nil, err
	}
	opts, err := spec.Options()
	if err != nil {
		return nil, err
	}
	figs, err := e.Run(append(opts, experiments.WithParallel(1))...)
	if err != nil {
		return nil, err
	}
	var raws []json.RawMessage
	for _, fig := range figs {
		var buf bytes.Buffer
		if err := report.FigureJSON(&buf, fig); err != nil {
			return nil, err
		}
		raws = append(raws, json.RawMessage(buf.Bytes()))
	}
	return encodeResult(spec, raws, nil)
}

// encodeResult renders the payload the job server stores and serves for a
// finished job: the public jobserver.Result schema over the same figure and
// measurement encodings.
func encodeResult(spec jobspec.Spec, figs []json.RawMessage, m *kernels.Measurement) ([]byte, error) {
	return json.Marshal(jobserver.Result{
		Key:         spec.Fingerprint(),
		Target:      jobserver.Job{Spec: spec}.Target(),
		Figures:     figs,
		Measurement: m,
	})
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// passResult is one direct pass over a workload's cells.
type passResult struct {
	outcomes []outcome
	hostNs   int64  // whole pass
	allocB   uint64 // runtime.MemStats.TotalAlloc delta
}

// runPass runs every cell once, in order, recording a span per call when tr
// is non-nil.
func runPass(w *workloadDef, count bool, tr *tracer, req string) passResult {
	var before, after runtime.MemStats
	// Start from a collected heap, so garbage left by whatever ran before
	// (a served round) is not charged to this pass.
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	root := tr.begin("bench.pass", req, -1)
	res := passResult{outcomes: make([]outcome, len(w.cells))}
	for i, c := range w.cells {
		sp := tr.begin(c.layer, req, root)
		res.outcomes[i] = runCell(c, count)
		tr.end(sp)
	}
	tr.end(root)
	res.hostNs = time.Since(start).Nanoseconds()
	runtime.ReadMemStats(&after)
	res.allocB = after.TotalAlloc - before.TotalAlloc
	return res
}
