package cilk

import (
	"fmt"
	"testing"

	"emuchick/internal/machine"
	"emuchick/internal/memsys"
	"emuchick/internal/sim"
	"emuchick/internal/trace"
)

// Cross-engine equivalence for the spawn trees: every strategy must produce
// the identical trace event stream, elapsed time, and counters whether the
// tree is spawned by goroutine threads or continuation threadlets.

type streamRecorder struct {
	events []trace.Event
}

func (r *streamRecorder) Event(e trace.Event) { r.events = append(r.events, e) }
func (r *streamRecorder) Sample(trace.Sample) {}

// ctTouchWorker is the continuation twin of the goroutine test worker: load
// the worker's home word (migrating if the strategy left it remote), then a
// little compute.
type ctTouchWorker struct {
	arr memsys.Striped
	w   int
	pc  int
}

func (b *ctTouchWorker) Step(t *machine.CThread) bool {
	for {
		switch b.pc {
		case 0:
			b.pc++
			if t.CLoad(b.arr.At(b.w % b.arr.Len())) {
				return false
			}
		case 1:
			b.pc++
			if t.CCompute(5) {
				return false
			}
		default:
			return true
		}
	}
}

// ctWorkersRoot drives a Workers tree as the run's root body.
type ctWorkersRoot struct {
	ws   *Workers
	done bool
}

func (b *ctWorkersRoot) Step(t *machine.CThread) bool {
	if !b.done {
		if b.ws.Drive(t) {
			return false
		}
		b.done = true
	}
	return true
}

// ctGroupedRoot drives a Grouped tree as the run's root body.
type ctGroupedRoot struct {
	g    *Grouped
	done bool
}

func (b *ctGroupedRoot) Step(t *machine.CThread) bool {
	if !b.done {
		if b.g.Drive(t) {
			return false
		}
		b.done = true
	}
	return true
}

// runEnginePair runs the goroutine and continuation variants of one scenario
// on fresh systems and fails on any trace/time/counter divergence.
func runEnginePair(t *testing.T, label string,
	mkGo func(s *machine.System) func(*machine.Thread),
	mkCont func(s *machine.System) machine.CBody) {
	t.Helper()
	run := func(cont bool) (sim.Time, []trace.Event, []machine.NodeletCounters) {
		s := machine.NewSystem(machine.HardwareChick())
		rec := &streamRecorder{}
		s.Attach(rec)
		var elapsed sim.Time
		var err error
		if cont {
			elapsed, err = s.RunCont(mkCont(s))
		} else {
			elapsed, err = s.Run(mkGo(s))
		}
		if err != nil {
			t.Fatalf("%s (cont=%v): %v", label, cont, err)
		}
		return elapsed, rec.events, s.Counters.Snapshot()
	}
	ge, gev, gc := run(false)
	ce, cev, cc := run(true)
	if ge != ce {
		t.Errorf("%s: elapsed diverged: goroutine %v, continuation %v", label, ge, ce)
	}
	if len(gev) != len(cev) {
		t.Fatalf("%s: event count diverged: goroutine %d, continuation %d", label, len(gev), len(cev))
	}
	for i := range gev {
		if gev[i] != cev[i] {
			t.Fatalf("%s: event %d diverged:\n  goroutine    %+v\n  continuation %+v", label, i, gev[i], cev[i])
		}
	}
	for i := range gc {
		if gc[i] != cc[i] {
			t.Errorf("%s: counters diverged at nodelet %d:\n  goroutine    %+v\n  continuation %+v", label, i, gc[i], cc[i])
		}
	}
}

func TestContWorkersMatchGoroutineAllStrategies(t *testing.T) {
	const workers = 23 // odd and > nodelets: uneven trees, every shape branch
	for _, strat := range Strategies {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			runEnginePair(t, strat.String(),
				func(s *machine.System) func(*machine.Thread) {
					arr := s.Mem.AllocStriped(s.Nodelets())
					return func(th *machine.Thread) {
						SpawnWorkers(th, th.System().Nodelets(), workers, strat, func(c *machine.Thread, w int) {
							c.Load(arr.At(w % arr.Len()))
							c.Compute(5)
						})
					}
				},
				func(s *machine.System) machine.CBody {
					arr := s.Mem.AllocStriped(s.Nodelets())
					ws := NewWorkers(s.Nodelets(), workers, strat, func(w int) machine.CBody {
						return &ctTouchWorker{arr: arr, w: w}
					})
					return &ctWorkersRoot{ws: ws}
				})
		})
	}
}

func TestContGroupedMatchesGoroutine(t *testing.T) {
	// Uneven groups, some empty, out-of-order ids within a group.
	mkGroups := func(nodelets int) [][]int {
		groups := make([][]int, nodelets)
		groups[1] = []int{3, 0, 5}
		groups[4] = []int{1}
		groups[6] = []int{2, 4, 7, 6}
		return groups
	}
	runEnginePair(t, "grouped",
		func(s *machine.System) func(*machine.Thread) {
			arr := s.Mem.AllocStriped(s.Nodelets())
			groups := mkGroups(s.Nodelets())
			return func(th *machine.Thread) {
				SpawnGrouped(th, groups, func(c *machine.Thread, w int) {
					c.Load(arr.At(w % arr.Len()))
					c.Compute(5)
				})
			}
		},
		func(s *machine.System) machine.CBody {
			arr := s.Mem.AllocStriped(s.Nodelets())
			groups := mkGroups(s.Nodelets())
			g := NewGrouped(groups, func(w int) machine.CBody {
				return &ctTouchWorker{arr: arr, w: w}
			})
			return &ctGroupedRoot{g: g}
		})
}

func TestContWorkersZeroAndNegative(t *testing.T) {
	for _, workers := range []int{0, -3} {
		s := machine.NewSystem(machine.HardwareChick())
		ws := NewWorkers(s.Nodelets(), workers, RecursiveRemoteSpawn, func(int) machine.CBody {
			t.Fatal("worker built for an empty tree")
			return nil
		})
		if _, err := s.RunCont(&ctWorkersRoot{ws: ws}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if s.Counters.ThreadsSpawned != 1 { // just the root
			t.Fatalf("workers=%d spawned %d threads", workers, s.Counters.ThreadsSpawned)
		}
	}
}

// ctRangeLeaf is the continuation twin of the ParallelFor test leaf: for
// each index, load its striped word (migrating when it is remote) and
// compute.
type ctRangeLeaf struct {
	arr    memsys.Striped
	i, hi  int
	loaded bool
}

func (b *ctRangeLeaf) Step(t *machine.CThread) bool {
	for b.i < b.hi {
		if !b.loaded {
			b.loaded = true
			if t.CLoad(b.arr.At(b.i % b.arr.Len())) {
				return false
			}
		}
		b.loaded = false
		b.i++
		if t.CCompute(3) {
			return false
		}
	}
	return true
}

func goRangeLeaf(arr memsys.Striped) func(*machine.Thread, int, int) {
	return func(w *machine.Thread, lo, hi int) {
		for i := lo; i < hi; i++ {
			w.Load(arr.At(i % arr.Len()))
			w.Compute(3)
		}
	}
}

// ctParForRoot drives a ParFor, then loads word 0 — the load pins the point
// where Drive hands control back to the enclosing body.
type ctParForRoot struct {
	pf   *ParFor
	arr  memsys.Striped
	done bool
}

func (b *ctParForRoot) Step(t *machine.CThread) bool {
	if !b.done {
		if b.pf.Drive(t) {
			return false
		}
		b.done = true
		if t.CLoad(b.arr.At(0)) {
			return false
		}
	}
	return true
}

// ctParForAt spawns one ParFor coordinator per listed nodelet, each over its
// own n iterations, like the per-nodelet coordinators of a blocked kernel.
type ctParForAt struct {
	arr      memsys.Striped
	nls      []int
	n, grain int
	next     int
}

func (b *ctParForAt) Step(t *machine.CThread) bool {
	for b.next < len(b.nls) {
		nl := b.nls[b.next]
		b.next++
		pf := NewParFor(b.n, b.grain, func(lo, hi int) machine.CBody {
			return &ctRangeLeaf{arr: b.arr, i: lo, hi: hi}
		})
		if t.CSpawnAt(nl, pf) {
			return false
		}
	}
	return true
}

func TestParForMatchesParallelFor(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 33, 100} {
		for _, grain := range []int{0, 1, 3, 16, 200} {
			n, grain := n, grain
			runEnginePair(t, fmt.Sprintf("n%d/grain%d", n, grain),
				func(s *machine.System) func(*machine.Thread) {
					arr := s.Mem.AllocStriped(s.Nodelets())
					return func(th *machine.Thread) {
						ParallelFor(th, n, grain, goRangeLeaf(arr))
						th.Load(arr.At(0))
					}
				},
				func(s *machine.System) machine.CBody {
					arr := s.Mem.AllocStriped(s.Nodelets())
					pf := NewParFor(n, grain, func(lo, hi int) machine.CBody {
						return &ctRangeLeaf{arr: arr, i: lo, hi: hi}
					})
					return &ctParForRoot{pf: pf, arr: arr}
				})
		}
	}
}

func TestParForSpawnedCoordinatorsMatchParallelFor(t *testing.T) {
	nls := []int{2, 5, 7}
	const n, grain = 29, 4
	runEnginePair(t, "coordinators",
		func(s *machine.System) func(*machine.Thread) {
			arr := s.Mem.AllocStriped(s.Nodelets())
			return func(th *machine.Thread) {
				for _, nl := range nls {
					th.SpawnAt(nl, func(c *machine.Thread) {
						ParallelFor(c, n, grain, goRangeLeaf(arr))
					})
				}
			}
		},
		func(s *machine.System) machine.CBody {
			return &ctParForAt{arr: s.Mem.AllocStriped(s.Nodelets()), nls: nls, n: n, grain: grain}
		})
}
