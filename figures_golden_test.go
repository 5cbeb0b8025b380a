package emuchick

// Archived figure goldens: every registered experiment's quick-scale,
// single-trial figure JSON is committed under testdata/figures, so any
// change to the simulator core (engine, proc hosting, memory model) that
// moves a single simulated number fails here, whichever experiment it hits.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"emuchick/internal/experiments"
)

// TestFiguresMatchArchivedGoldens regenerates every experiment serially and
// with four parallel cells and demands the archived bytes both times.
func TestFiguresMatchArchivedGoldens(t *testing.T) {
	for _, e := range experiments.All() {
		t.Run(e.ID, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "figures", e.ID+".json"))
			if err != nil {
				t.Fatalf("missing golden (regenerate with figuresJSON(id)): %v", err)
			}
			for _, parallel := range []int{1, 4} {
				got := figuresJSON(t, e.ID, experiments.WithParallel(parallel))
				if !bytes.Equal(got, want) {
					t.Errorf("-parallel %d: figure JSON differs from testdata/figures/%s.json:\ngot:  %s\nwant: %s",
						parallel, e.ID, got, want)
				}
			}
		})
	}
}
