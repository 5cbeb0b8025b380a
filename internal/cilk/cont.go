package cilk

import (
	"fmt"

	"emuchick/internal/machine"
)

// Continuation-form spawn trees: SpawnWorkers and SpawnGrouped restated as
// resumable state machines over machine.CThread. Each machine performs the
// IDENTICAL sequence of spawn/sync operations as its closure twin — same
// tree shape, same spawn order, same explicit syncs — so a kernel ported to
// the continuation engine produces a bit-identical event stream. The
// recursive helpers (spawnRangeLocal and friends) become iterative drivers:
// the caller-side half of each recursion is a loop that shrinks its range,
// and the spawned-side half is a coordinator CBody carrying the subrange.

// contSpawner is one resumable caller-side spawn loop. drive issues spawns
// until it parks (parked=true: the enclosing Step must return) or until
// every spawn in its range has been issued (parked=false).
type contSpawner interface {
	drive(t *machine.CThread, mk func(int) machine.CBody) (parked bool)
}

// contCoord is the spawned-side coordinator shape shared by every strategy:
// run a spawner over the delegated subrange, then an explicit sync — the
// continuation of the closures `func(c) { spawnXxx(c, ...); c.Sync() }`.
type contCoord struct {
	s      contSpawner
	mk     func(int) machine.CBody
	synced bool
}

//emu:nohandoff CBody contract: park state, never the goroutine
func (c *contCoord) Step(t *machine.CThread) bool {
	if !c.synced {
		if c.s.drive(t, c.mk) {
			return false
		}
		c.synced = true
		if t.CSync() {
			return false
		}
	}
	return true
}

// contSerial mirrors SerialSpawn's caller loop: workers local spawns in id
// order.
type contSerial struct{ w, workers int }

func (s *contSerial) drive(t *machine.CThread, mk func(int) machine.CBody) bool {
	for s.w < s.workers {
		w := s.w
		s.w++
		if t.CSpawn(mk(w)) {
			return true
		}
	}
	return false
}

// contRange mirrors spawnRangeLocal's caller side: spawn a coordinator for
// the lower half, then descend into the upper half in place.
type contRange struct{ lo, hi int }

func (r *contRange) drive(t *machine.CThread, mk func(int) machine.CBody) bool {
	for {
		switch n := r.hi - r.lo; {
		case n <= 0:
			return false
		case n == 1:
			w := r.lo
			r.lo = r.hi
			if t.CSpawn(mk(w)) {
				return true
			}
		default:
			mid := r.lo + n/2
			lower := contRange{lo: r.lo, hi: mid}
			r.lo = mid
			if t.CSpawn(&contCoord{s: &lower, mk: mk}) {
				return true
			}
		}
	}
}

// contIDs mirrors spawnIDsLocal's caller side over an explicit id list.
type contIDs struct{ ids []int }

func (s *contIDs) drive(t *machine.CThread, mk func(int) machine.CBody) bool {
	for {
		switch n := len(s.ids); {
		case n == 0:
			return false
		case n == 1:
			id := s.ids[0]
			s.ids = nil
			if t.CSpawn(mk(id)) {
				return true
			}
		default:
			mid := n / 2
			left := contIDs{ids: s.ids[:mid]}
			s.ids = s.ids[mid:]
			if t.CSpawn(&contCoord{s: &left, mk: mk}) {
				return true
			}
		}
	}
}

// contSerialRemote mirrors SerialRemoteSpawn's caller loop: one remote spawn
// per nodelet, each hosting a serial per-nodelet coordinator.
type contSerialRemote struct{ nl, nodelets, workers int }

func (s *contSerialRemote) drive(t *machine.CThread, mk func(int) machine.CBody) bool {
	for s.nl < s.nodelets && s.nl < s.workers {
		nl := s.nl
		s.nl++
		coord := &contSerialNodelet{w: nl, step: s.nodelets, workers: s.workers}
		if t.CSpawnAt(nl, &contCoord{s: coord, mk: mk}) {
			return true
		}
	}
	return false
}

// contSerialNodelet is the per-nodelet serial spawner of SerialRemoteSpawn:
// workers nl, nl+nodelets, nl+2*nodelets, ...
type contSerialNodelet struct{ w, step, workers int }

func (s *contSerialNodelet) drive(t *machine.CThread, mk func(int) machine.CBody) bool {
	for s.w < s.workers {
		w := s.w
		s.w += s.step
		if t.CSpawn(mk(w)) {
			return true
		}
	}
	return false
}

// contNodelets mirrors spawnNodeletsRecursive's caller side: spawn the upper
// half of the nodelet range at its first nodelet, descend into the lower half.
type contNodelets struct{ nodelets, nlo, nhi, workers int }

func (s *contNodelets) drive(t *machine.CThread, mk func(int) machine.CBody) bool {
	for {
		switch n := s.nhi - s.nlo; {
		case n <= 0:
			return false
		case n == 1:
			nl := s.nlo
			s.nlo = s.nhi
			coord := &contNodeletIDs{nl: nl, step: s.nodelets, workers: s.workers}
			if t.CSpawnAt(nl, &contCoord{s: coord, mk: mk}) {
				return true
			}
		default:
			mid := s.nlo + n/2
			upper := contNodelets{nodelets: s.nodelets, nlo: mid, nhi: s.nhi, workers: s.workers}
			s.nhi = mid
			if t.CSpawnAt(mid, &contCoord{s: &upper, mk: mk}) {
				return true
			}
		}
	}
}

// contNodeletIDs is the leaf coordinator of RecursiveRemoteSpawn: build the
// nodelet's worker-id list, then a local recursive tree over it.
type contNodeletIDs struct {
	nl, step, workers int
	built             bool
	ids               contIDs
}

func (s *contNodeletIDs) drive(t *machine.CThread, mk func(int) machine.CBody) bool {
	if !s.built {
		s.built = true
		for w := s.nl; w < s.workers; w += s.step {
			s.ids.ids = append(s.ids.ids, w)
		}
	}
	return s.ids.drive(t, mk)
}

// contGroups mirrors spawnGroupRange's caller side over the populated
// nodelet list.
type contGroups struct {
	groups [][]int
	nls    []int
}

func (s *contGroups) drive(t *machine.CThread, mk func(int) machine.CBody) bool {
	for {
		switch n := len(s.nls); {
		case n == 0:
			return false
		case n == 1:
			nl := s.nls[0]
			s.nls = nil
			if t.CSpawnAt(nl, &contCoord{s: &contIDs{ids: s.groups[nl]}, mk: mk}) {
				return true
			}
		default:
			mid := n / 2
			right := contGroups{groups: s.groups, nls: s.nls[mid:]}
			s.nls = s.nls[:mid]
			if t.CSpawnAt(right.nls[0], &contCoord{s: &right, mk: mk}) {
				return true
			}
		}
	}
}

// Workers is SpawnWorkers for the continuation engine: construct with
// NewWorkers, then call Drive from the body's Step each time it is resumed.
// Drive reports parked=true when the enclosing Step must return false; once
// it reports parked=false the whole tree has been spawned AND joined, and
// the body continues past it — exactly where the closure SpawnWorkers call
// would have returned.
type Workers struct {
	nodelets, workers int
	strat             Strategy
	mk                func(int) machine.CBody
	spawner           contSpawner
	phase             uint8 // 0 validate, 1 spawn, 2 sync issued, 3 done
}

// NewWorkers prepares a continuation-form SpawnWorkers: workers bodies built
// by mk(w), spread over nodelets with the given strategy.
func NewWorkers(nodelets, workers int, strat Strategy, mk func(int) machine.CBody) *Workers {
	return &Workers{nodelets: nodelets, workers: workers, strat: strat, mk: mk}
}

// Drive advances the spawn tree; see the type comment for the protocol.
func (ws *Workers) Drive(t *machine.CThread) (parked bool) {
	for {
		switch ws.phase {
		case 0:
			if ws.workers <= 0 {
				ws.phase = 3
				return false
			}
			if ws.nodelets <= 0 || ws.nodelets > t.System().Nodelets() {
				panic(fmt.Sprintf("cilk: %d nodelets requested of %d", ws.nodelets, t.System().Nodelets()))
			}
			switch ws.strat {
			case SerialSpawn:
				ws.spawner = &contSerial{workers: ws.workers}
			case RecursiveSpawn:
				ws.spawner = &contRange{hi: ws.workers}
			case SerialRemoteSpawn:
				ws.spawner = &contSerialRemote{nodelets: ws.nodelets, workers: ws.workers}
			case RecursiveRemoteSpawn:
				ws.spawner = &contNodelets{nodelets: ws.nodelets, nhi: min(ws.nodelets, ws.workers), workers: ws.workers}
			default:
				panic("cilk: unknown strategy")
			}
			ws.phase = 1
		case 1:
			if ws.spawner.drive(t, ws.mk) {
				return true
			}
			ws.phase = 2
			if t.CSync() {
				return true
			}
		case 2:
			ws.phase = 3
		case 3:
			return false
		}
	}
}

// Grouped is SpawnGrouped for the continuation engine, with the same Drive
// protocol as Workers.
type Grouped struct {
	spawner *contGroups
	mk      func(int) machine.CBody
	phase   uint8
}

// NewGrouped prepares a continuation-form SpawnGrouped over groups[nl] =
// worker ids homed on nodelet nl.
func NewGrouped(groups [][]int, mk func(int) machine.CBody) *Grouped {
	var nls []int
	for nl, ids := range groups {
		if len(ids) > 0 {
			nls = append(nls, nl)
		}
	}
	return &Grouped{spawner: &contGroups{groups: groups, nls: nls}, mk: mk}
}

// Drive advances the grouped spawn tree; see Workers.Drive for the protocol.
func (g *Grouped) Drive(t *machine.CThread) (parked bool) {
	for {
		switch g.phase {
		case 0:
			if g.spawner.drive(t, g.mk) {
				return true
			}
			g.phase = 1
			if t.CSync() {
				return true
			}
		case 1:
			g.phase = 2
		case 2:
			return false
		}
	}
}
