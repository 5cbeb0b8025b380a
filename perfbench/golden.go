package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
)

// golden is the recorded output of one workload at one seed. Values are
// the exact Measurement vectors (float64 round-trips exactly through JSON),
// counts are exact simulated-event counts, and result hashes cover the
// byte payloads the job server returns.
type golden struct {
	Workload string       `json:"workload"`
	Seed     uint64       `json:"seed"`
	Cells    []goldenCell `json:"cells"`
}

type goldenCell struct {
	Name          string         `json:"name"`
	Values        []float64      `json:"values,omitempty"`
	DRAMLineBytes int64          `json:"dram_line_bytes,omitempty"`
	Machine       *machineCounts `json:"machine,omitempty"`
	ResultSHA256  string         `json:"result_sha256,omitempty"`
}

func goldenPath(dir, workload string, seed uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
}

// loadGolden returns the recorded golden for (workload, seed), or nil when
// none was recorded for that seed.
func loadGolden(dir, workload string, seed uint64) (*golden, error) {
	b, err := os.ReadFile(goldenPath(dir, workload, seed))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden %s seed %d: %w", workload, seed, err)
	}
	return &g, nil
}

func writeGolden(dir string, g *golden) error {
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath(dir, g.Workload, g.Seed), append(b, '\n'), 0o644)
}

// expectations is what every cell's output is checked against: the golden
// when one is recorded for the seed, otherwise the first observation in
// this run (so every later pass, round and the traced run must repeat it
// exactly).
type expectations struct {
	cells  []goldenCell
	filled []bool
}

func newExpectations(w *workloadDef, g *golden) (*expectations, error) {
	e := &expectations{cells: make([]goldenCell, len(w.cells)), filled: make([]bool, len(w.cells))}
	if g == nil {
		return e, nil
	}
	if len(g.Cells) != len(w.cells) {
		return nil, fmt.Errorf("golden %s seed %d has %d cells, workload has %d",
			g.Workload, g.Seed, len(g.Cells), len(w.cells))
	}
	for i, gc := range g.Cells {
		if gc.Name != w.cells[i].name {
			return nil, fmt.Errorf("golden %s seed %d cell %d is %q, workload has %q",
				g.Workload, g.Seed, i, gc.Name, w.cells[i].name)
		}
		e.cells[i] = gc
		e.filled[i] = true
	}
	return e, nil
}

// observed renders an outcome in golden form.
func observed(name string, out outcome) goldenCell {
	gc := goldenCell{Name: name, Values: out.values, DRAMLineBytes: out.dramLineBytes, Machine: out.counts}
	if out.result != nil {
		gc.ResultSHA256 = sha(out.result)
	}
	return gc
}

// check compares cell i's outcome with its expectation, adopting the
// outcome as the expectation on first sight. Machine counts are compared
// only when both sides have them.
func (e *expectations) check(i int, out outcome) error {
	if out.err != nil {
		return out.err
	}
	got := observed(e.cells[i].Name, out)
	if !e.filled[i] {
		name := e.cells[i].Name
		e.cells[i] = got
		e.cells[i].Name = name
		e.filled[i] = true
		return nil
	}
	want := &e.cells[i]
	if !sameValues(got.Values, want.Values) {
		return fmt.Errorf("%s: values %v, want %v", want.Name, got.Values, want.Values)
	}
	if got.DRAMLineBytes != want.DRAMLineBytes {
		return fmt.Errorf("%s: dram_line_bytes %d, want %d", want.Name, got.DRAMLineBytes, want.DRAMLineBytes)
	}
	if got.ResultSHA256 != want.ResultSHA256 {
		return fmt.Errorf("%s: result sha256 %s, want %s", want.Name, got.ResultSHA256, want.ResultSHA256)
	}
	if got.Machine != nil {
		if want.Machine == nil {
			want.Machine = got.Machine
		} else if *got.Machine != *want.Machine {
			return fmt.Errorf("%s: machine counts %+v, want %+v", want.Name, *got.Machine, *want.Machine)
		}
	}
	return nil
}

// checkServed compares result bytes the server returned for cell i with
// the expected payload hash.
func (e *expectations) checkServed(i int, body []byte) error {
	if !e.filled[i] || e.cells[i].ResultSHA256 == "" {
		return fmt.Errorf("%s: no expected result payload", e.cells[i].Name)
	}
	if got := sha(body); got != e.cells[i].ResultSHA256 {
		return fmt.Errorf("%s: served result sha256 %s, want %s", e.cells[i].Name, got, e.cells[i].ResultSHA256)
	}
	return nil
}

func sameValues(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
