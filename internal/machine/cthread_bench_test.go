package machine

import (
	"testing"

	"emuchick/internal/memsys"
)

// Per-op host cost of the continuation threadlet operations the Emu kernels
// spend their time in. Each benchmark spreads b.N operations over one
// worker per nodelet, so ns/op is host nanoseconds per simulated operation.

// benchWorker issues n operations of one kind: op picks the address of the
// i-th one, and add selects a posted atomic add instead of a load.
type benchWorker struct {
	nl, n, i int
	add      bool
	op       func(nl, i int) memsys.Addr
}

func (w *benchWorker) Step(t *CThread) bool {
	for w.i < w.n {
		a := w.op(w.nl, w.i)
		w.i++
		var parked bool
		if w.add {
			parked = t.CRemoteAdd(a, 1)
		} else {
			parked = t.CLoad(a)
		}
		if parked {
			return false
		}
	}
	return true
}

type benchRoot struct {
	workers []*benchWorker
	next    int
}

func (r *benchRoot) Step(t *CThread) bool {
	for r.next < len(r.workers) {
		w := r.workers[r.next]
		r.next++
		if t.CSpawnAt(w.nl, w) {
			return false
		}
	}
	return true
}

func runOpBench(b *testing.B, add bool, op func(words memsys.Striped, nl, i int) memsys.Addr) {
	s := NewSystem(HardwareChick())
	words := s.Mem.AllocStriped(64 * s.Nodelets())
	nls := s.Nodelets()
	root := &benchRoot{}
	for nl := 0; nl < nls; nl++ {
		lo, hi := nl*b.N/nls, (nl+1)*b.N/nls
		root.workers = append(root.workers, &benchWorker{
			nl: nl, n: hi - lo, add: add,
			op: func(nl, i int) memsys.Addr { return op(words, nl, i) },
		})
	}
	b.ResetTimer()
	if _, err := s.RunCont(root); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCLoadLocal: every load hits the worker's own nodelet.
func BenchmarkCLoadLocal(b *testing.B) {
	runOpBench(b, false, func(words memsys.Striped, nl, i int) memsys.Addr {
		return words.At(nl + words.Nodelets()*(i%64))
	})
}

// BenchmarkCLoadRemote: every load is on the next nodelet round, so each one
// migrates before its access.
func BenchmarkCLoadRemote(b *testing.B) {
	runOpBench(b, false, func(words memsys.Striped, nl, i int) memsys.Addr {
		return words.At((nl + i + 1) % words.Nodelets())
	})
}

// BenchmarkCRemoteAdd: posted atomic adds spread over every nodelet's words.
func BenchmarkCRemoteAdd(b *testing.B) {
	runOpBench(b, true, func(words memsys.Striped, nl, i int) memsys.Addr {
		return words.At((nl*7 + i) % words.Len())
	})
}
