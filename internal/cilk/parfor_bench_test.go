package cilk

import (
	"testing"

	"emuchick/internal/machine"
)

// The same loop through both ParallelFor forms: b.N leaves of benchGrain
// iterations, each iteration one compute op. The metric is host
// nanoseconds per leaf, spawn tree and sync included.
const benchGrain = 4

func reportPerLeaf(b *testing.B, run func() error) {
	b.ResetTimer()
	if err := run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/leaf")
}

func BenchmarkParallelForClosure(b *testing.B) {
	s := machine.NewSystem(machine.HardwareChick())
	reportPerLeaf(b, func() error {
		_, err := s.Run(func(th *machine.Thread) {
			ParallelFor(th, b.N*benchGrain, benchGrain, func(w *machine.Thread, lo, hi int) {
				for i := lo; i < hi; i++ {
					w.Compute(1)
				}
			})
		})
		return err
	})
}

// benchLeaf is the continuation twin of the closure benchmark's leaf.
type benchLeaf struct{ i, hi int }

func (l *benchLeaf) Step(t *machine.CThread) bool {
	for l.i < l.hi {
		l.i++
		if t.CCompute(1) {
			return false
		}
	}
	return true
}

func BenchmarkParForCont(b *testing.B) {
	s := machine.NewSystem(machine.HardwareChick())
	pf := NewParFor(b.N*benchGrain, benchGrain, func(lo, hi int) machine.CBody {
		return &benchLeaf{i: lo, hi: hi}
	})
	reportPerLeaf(b, func() error {
		_, err := s.RunCont(pf)
		return err
	})
}
