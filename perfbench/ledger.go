package main

import (
	"fmt"
	"io"
	"path/filepath"
	"time"

	"emuchick/internal/storefs"
)

// runLedger is the traced run: the per-layer ledger. It is the same for
// every --workload (the seed still drives every input), because each layer
// metric is defined on the workload that exercises that layer:
//
//   - emu-migratory: untraced and traced direct passes alternate; the traced
//     ones carry spans and a counting trace.Observer (kernels.stream/chase/
//     pingpong, machine.*, trace.overhead_pct);
//   - sparse-xeon: one traced direct pass (kernels.spmv/gups, cpukernels.*,
//     xeon.dram_line_bytes, xeon.ns_per_dram_line);
//   - serve-mixed: one traced direct pass (experiments.job_ms_p50) and traced
//     rounds with client spans and a timing storefs.FS (jobspec.*,
//     jobserver.*, storefs.*);
//   - direct probes of sim, memsys and xeon.
//
// The emu pairs repeat until --seconds have elapsed, with servedRounds
// serve rounds spread over that time.
func runLedger(cfg config, log io.Writer) (*result, error) {
	tr := newTracer()
	t := &tally{log: log}
	m := map[string]metric{}
	start := time.Now()
	dur := time.Duration(cfg.seconds) * time.Second

	if err := probeLayers(m); err != nil {
		return nil, err
	}

	emu, _, err := prepare(cfg, emuMigratory)
	if err != nil {
		return nil, err
	}
	sparse, _, err := prepare(cfg, sparseXeon)
	if err != nil {
		return nil, err
	}
	serve, _, err := prepare(cfg, serveMixed)
	if err != nil {
		return nil, err
	}

	// sparse-xeon: one traced pass (its passes take seconds).
	sp := runPass(sparse.w, false, tr, "sparse-pass")
	for i, out := range sp.outcomes {
		t.op(sparse.exp.check(i, out))
	}
	layerMs := spanSums(tr, "sparse-pass")
	var dramBytes, chaseNs int64
	for i, c := range sparse.w.cells {
		if c.layer == "cpukernels.chase" {
			dramBytes += sp.outcomes[i].dramLineBytes
			chaseNs += sp.outcomes[i].hostNs
		}
	}
	for _, k := range []string{"kernels.spmv", "kernels.gups", "cpukernels.chase", "cpukernels.spmv"} {
		m[k+"_ms"] = metric{layerMs[k], "ms"}
	}
	m["xeon.dram_line_bytes"] = metric{float64(dramBytes), "B"}
	m["xeon.ns_per_dram_line"] = metric{float64(chaseNs) / float64(dramBytes/64), "ns"}

	// serve-mixed: one traced direct pass, then traced rounds.
	xp := runPass(serve.w, false, tr, "serve-pass")
	var expMs []float64
	for i, out := range xp.outcomes {
		t.op(serve.exp.check(i, out))
		if serve.w.cells[i].spec.Experiment != "" {
			expMs = append(expMs, float64(out.hostNs)/1e6)
		}
	}
	m["experiments.job_ms_p50"] = metric{median(expMs), "ms"}
	probeFingerprint(serve, m)

	// emu-migratory pairs and serve rounds alternate until time is up.
	var untracedNs, tracedNs, migNs, memNs []float64
	var counts machineCounts
	var rounds []*roundResult
	var roundFS []fsRound
	fsys := newTimingFS(tr)
	layerRuns := map[string][]float64{}
	// serveDue makes the traced serve rounds that are due (servedRounds
	// spread over the run, as in runWorkload); with all set, every one
	// that is left.
	serveDue := func(all bool) error {
		for spread(start, dur, len(rounds), servedRounds) || (all && len(rounds) < servedRounds) {
			r, err := serveRound(serve.w, serve.scheds, serve.specs, serve.exp, cfg.dirs.next("ledger"), storefs.FS(fsys), tr)
			if err != nil {
				return err
			}
			t.round(r)
			syncs, syncNs, written := fsys.counts()
			rounds = append(rounds, r)
			roundFS = append(roundFS, fsRound{syncs, syncNs, written})
		}
		return nil
	}
	for it := 0; it < minIterations || time.Since(start) < dur; it++ {
		// Alternate which of the pair runs first, so drift within a run
		// does not bias the overhead.
		req := fmt.Sprintf("emu-pass-%d", it)
		var u, tp passResult
		if it%2 == 0 {
			u = runPass(emu.w, false, nil, "")
			tp = runPass(emu.w, true, tr, req)
		} else {
			tp = runPass(emu.w, true, tr, req)
			u = runPass(emu.w, false, nil, "")
		}
		untracedNs = append(untracedNs, float64(u.hostNs))
		tracedNs = append(tracedNs, float64(tp.hostNs))
		counts = machineCounts{}
		var migHostNs, memHostNs, migrations, memOps float64
		for i, c := range emu.w.cells {
			t.op(emu.exp.check(i, u.outcomes[i]))
			t.op(emu.exp.check(i, tp.outcomes[i]))
			mc := tp.outcomes[i].counts
			if mc == nil {
				continue
			}
			counts.Migrations += mc.Migrations
			counts.MemOps += mc.MemOps
			counts.Spawns += mc.Spawns
			switch {
			case c.name == "chase/nl8/block1" || c.layer == "kernels.pingpong":
				migHostNs += float64(u.outcomes[i].hostNs)
				migrations += float64(mc.Migrations)
			case c.layer == "kernels.stream":
				memHostNs += float64(u.outcomes[i].hostNs)
				memOps += float64(mc.MemOps)
			}
		}
		migNs = append(migNs, migHostNs/migrations)
		memNs = append(memNs, memHostNs/memOps)
		for k, v := range spanSums(tr, req) {
			layerRuns[k] = append(layerRuns[k], v)
		}

		if err := serveDue(false); err != nil {
			return nil, err
		}
	}
	if err := serveDue(true); err != nil {
		return nil, err
	}
	for _, k := range []string{"kernels.stream", "kernels.chase", "kernels.pingpong"} {
		m[k+"_ms"] = metric{median(layerRuns[k]), "ms"}
	}
	m["machine.migrations"] = metric{float64(counts.Migrations), "count"}
	m["machine.mem_ops"] = metric{float64(counts.MemOps), "count"}
	m["machine.spawns"] = metric{float64(counts.Spawns), "count"}
	m["machine.ns_per_migration"] = metric{median(migNs), "ns"}
	m["machine.ns_per_mem_op"] = metric{median(memNs), "ns"}
	m["trace.overhead_pct"] = metric{100 * (median(tracedNs) - median(untracedNs)) / median(untracedNs), "%"}
	serveMetrics(rounds, roundFS, m)

	spans := tr.resolved()
	for layer, ns := range selfTimes(spans) {
		if _, ok := selfLayers[layer]; ok {
			m["self_ms."+layer] = metric{float64(ns) / 1e6, "ms"}
		}
	}
	for layer := range selfLayers {
		if _, ok := m["self_ms."+layer]; !ok {
			m["self_ms."+layer] = metric{0, "ms"}
		}
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "perfbench: ledger seed %d: %d emu pairs, %d serve rounds, %d spans in %s\n",
		cfg.seed, len(tracedNs), len(rounds), len(spans), path)
	return newResult(t, m)
}

// selfLayers are the layers whose self time the ledger reports.
var selfLayers = map[string]struct{}{
	"client": {}, "jobserver": {}, "storefs": {}, "kernels": {}, "cpukernels": {}, "experiments": {},
}

// spanSums returns the summed duration in ms of each span name of one
// request (one direct pass).
func spanSums(tr *tracer, req string) map[string]float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	sums := map[string]float64{}
	for _, s := range tr.spans {
		if s.Req == req && s.Parent >= 0 {
			sums[s.Name] += float64(s.End-s.Start) / 1e6
		}
	}
	return sums
}

type fsRound struct {
	syncs   map[string]int
	syncNs  []int64
	written int64
}

// serveMetrics derives the jobserver.* and storefs.* ledger entries from the
// traced serve-mixed rounds.
func serveMetrics(rounds []*roundResult, fsr []fsRound, m map[string]metric) {
	var submit, result, wait, syncMs, written, hitMs, coldMs, diskHitMs []float64
	var hitSyncs, coldSyncs, hits, colds, shed int
	for i, r := range rounds {
		hitMs = append(hitMs, r.hitMs...)
		coldMs = append(coldMs, r.coldMs...)
		diskHitMs = append(diskHitMs, r.diskHitMs...)
		for _, c := range r.calls {
			submit = append(submit, c.submitMs)
			result = append(result, c.resultMs)
			wait = append(wait, c.waitMs...)
		}
		f := fsr[i]
		for _, id := range r.hitJobs {
			hitSyncs += f.syncs[id]
		}
		for key, id := range r.keyJob {
			coldSyncs += f.syncs[id] + f.syncs["key:"+key]
		}
		hits += len(r.hitJobs)
		colds += len(r.coldJobs)
		for _, ns := range f.syncNs {
			syncMs = append(syncMs, float64(ns)/1e6)
		}
		written = append(written, float64(f.written))
		shed += r.stats.Shed
	}
	first := rounds[0]
	base := first.stats.CacheHits + first.stats.Simulated
	// Hit, cold-tail and disk-hit latencies of the traced rounds: too
	// unsteady across runs on a shared host to carry an end-to-end bound
	// (see README.md).
	m["jobserver.hit_ms_p50"] = metric{percentile(hitMs, 50), "ms"}
	m["jobserver.hit_ms_p99"] = metric{percentile(hitMs, 99), "ms"}
	m["jobserver.cold_ms_p90"] = metric{percentile(coldMs, 90), "ms"}
	m["jobserver.disk_hit_ms_p50"] = metric{percentile(diskHitMs, 50), "ms"}
	m["jobserver.submit_ms_p50"] = metric{median(submit), "ms"}
	m["jobserver.result_ms_p50"] = metric{median(result), "ms"}
	m["jobserver.wait_ms_p50"] = metric{median(wait), "ms"}
	m["jobserver.cache_hit_ratio"] = metric{float64(first.stats.CacheHits) / float64(base), "ratio"}
	m["jobserver.cache_hit_base"] = metric{float64(base), "count"}
	m["jobserver.shed"] = metric{float64(shed), "count"}
	m["jobserver.records_at_restart"] = metric{float64(first.records), "count"}
	m["storefs.syncs_per_hit"] = metric{float64(hitSyncs) / float64(hits), "count"}
	m["storefs.syncs_per_cold_job"] = metric{float64(coldSyncs) / float64(colds), "count"}
	m["storefs.sync_ms_p50"] = metric{median(syncMs), "ms"}
	m["storefs.bytes_written"] = metric{median(written), "B"}
}

// probeFingerprint times Canonical + Validate + Fingerprint over the specs
// serve-mixed sends.
func probeFingerprint(p *prepared, m map[string]metric) {
	const reps = 200
	var n int64
	start := time.Now()
	for r := 0; r < reps; r++ {
		for _, c := range p.w.cells {
			if !c.served() {
				continue
			}
			s := c.spec.Canonical()
			if s.Validate() == nil && s.Fingerprint() != "" {
				n++
			}
		}
	}
	m["jobspec.fingerprint_us"] = metric{float64(time.Since(start).Nanoseconds()) / 1e3 / float64(n), "us"}
	m["jobspec.fingerprints"] = metric{float64(n), "count"}
}

// probeLayers runs the sim, memsys and xeon probes.
func probeLayers(m map[string]metric) error {
	type entry struct {
		cost, count, unit string
		run               func() (probe, error)
	}
	for _, e := range []entry{
		{"sim.cont_ns_per_park", "sim.cont_parks", "ns", probeContPark},
		{"sim.go_ns_per_park", "sim.go_parks", "ns", probeGoPark},
		{"sim.bytes_per_proc", "sim.procs", "B", probeBytesPerProc},
		{"sim.ns_per_acquire", "sim.acquires", "ns", probeAcquire},
		{"memsys.ns_per_rw", "memsys.rw_ops", "ns", probeReadWrite},
		{"xeon.hit_ns_per_access", "xeon.hit_accesses", "ns",
			func() (probe, error) { return probeXeonRead(16<<10, 1<<18, false) }},
		{"xeon.miss_ns_per_access", "xeon.miss_accesses", "ns",
			func() (probe, error) { return probeXeonRead(256<<20, 1<<18, true) }},
	} {
		p, err := medianProbe(e.run)
		if err != nil {
			return fmt.Errorf("%s: %w", e.cost, err)
		}
		m[e.cost] = metric{p.nsPerOp, e.unit}
		m[e.count] = metric{float64(p.ops), "count"}
	}
	return nil
}
