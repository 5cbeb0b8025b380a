package main

import (
	"testing"
)

// TestGoldenCatchesPerturbation runs one counted direct pass of
// emu-migratory at the default seed against its recorded golden, then
// checks the same outputs against goldens perturbed in each checked field:
// every perturbation must be reported as a failure, not a pass.
func TestGoldenCatchesPerturbation(t *testing.T) {
	cfg := config{workload: emuMigratory, seed: 1, golden: "golden", out: t.TempDir()}
	var err error
	if cfg.dirs, err = newDirs(cfg.out); err != nil {
		t.Fatal(err)
	}
	p, _, err := prepare(cfg, emuMigratory)
	if err != nil {
		t.Fatal(err)
	}
	if !p.golden {
		t.Fatal("no golden recorded for emu-migratory seed 1")
	}
	pass := runPass(p.w, true, nil, "")
	for i, out := range pass.outcomes {
		if err := p.exp.check(i, out); err != nil {
			t.Fatalf("unperturbed golden: %v", err)
		}
		if err := p.exp.checkServed(i, out.result); err != nil {
			t.Fatalf("unperturbed golden: %v", err)
		}
	}

	perturbations := map[string]func(*goldenCell){
		"elapsed_ps":    func(g *goldenCell) { g.Values[1]++ },
		"bytes":         func(g *goldenCell) { g.Values[0]-- },
		"migrations":    func(g *goldenCell) { c := *g.Machine; c.Migrations++; g.Machine = &c },
		"mem_ops":       func(g *goldenCell) { c := *g.Machine; c.MemOps++; g.Machine = &c },
		"result_sha256": func(g *goldenCell) { g.ResultSHA256 = sha([]byte("perturbed")) },
	}
	const cell = 8 // chase/nl8/block1: migrates on every element
	for name, perturb := range perturbations {
		exp, err := newExpectations(p.w, mustGolden(t, cfg))
		if err != nil {
			t.Fatal(err)
		}
		g := &exp.cells[cell]
		perturb(g)
		failed := exp.check(cell, pass.outcomes[cell]) != nil
		if name == "result_sha256" {
			failed = failed && exp.checkServed(cell, pass.outcomes[cell].result) != nil
		}
		if !failed {
			t.Errorf("golden with perturbed %s reported as a pass", name)
		}
	}
}

func mustGolden(t *testing.T, cfg config) *golden {
	t.Helper()
	g, err := loadGolden(cfg.golden, cfg.workload, cfg.seed)
	if err != nil || g == nil {
		t.Fatalf("load golden: %v", err)
	}
	return g
}

// TestSelfTimeSubtractsCoveredChildren checks the self-time arithmetic on
// overlapping and clipped children.
func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "client.job", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "jobserver.submit", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "jobserver.wait", Start: 30, End: 60},
		{ID: 3, Parent: 1, Name: "storefs.sync", Start: 35, End: 45}, // clipped to 40
	}
	got := selfTimes(spans)
	want := map[string]int64{"client": 50, "jobserver": 30 - 5 + 30, "storefs": 10}
	for layer, ns := range want {
		if got[layer] != ns {
			t.Errorf("self time of %s = %d, want %d", layer, got[layer], ns)
		}
	}
}
