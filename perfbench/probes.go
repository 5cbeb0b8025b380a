package main

import (
	"fmt"
	"runtime"
	"time"

	"emuchick/internal/memsys"
	"emuchick/internal/sim"
	"emuchick/internal/xeon"
)

// A probe times one public operation of a layer in a loop and reports its
// host cost per operation together with the number of operations, taking
// the median of probeReps repetitions.
type probe struct {
	nsPerOp float64
	ops     int64
}

const probeReps = 3

func medianProbe(run func() (probe, error)) (probe, error) {
	var ps []probe
	var ns []float64
	for i := 0; i < probeReps; i++ {
		p, err := run()
		if err != nil {
			return probe{}, err
		}
		ps = append(ps, p)
		ns = append(ns, p.nsPerOp)
	}
	m := median(ns)
	for _, p := range ps {
		if p.nsPerOp == m {
			return p, nil
		}
	}
	return ps[0], nil
}

func nsPer(start time.Time, ops int64) float64 {
	return float64(time.Since(start).Nanoseconds()) / float64(ops)
}

// contSleeper is a continuation proc that parks `left` times, one
// nanosecond apart, then exits.
type contSleeper struct{ left int }

func (s *contSleeper) StepProc(p *sim.Proc) {
	for s.left > 0 {
		s.left--
		if p.SleepUntil(p.Now() + sim.Nanosecond) {
			return
		}
	}
	p.Exit()
}

// probeContPark: SpawnContAt plus repeated SleepUntil. The operation count
// is the engine's dispatched events — one per park resumed, plus the
// spawns' first dispatch.
func probeContPark() (probe, error) {
	const procs, parks = 1024, 256
	eng := sim.NewEngineSized(procs)
	bodies := make([]contSleeper, procs)
	start := time.Now()
	for i := range bodies {
		bodies[i].left = parks
		eng.SpawnContAt(0, "probe", &bodies[i])
	}
	if err := eng.Run(); err != nil {
		return probe{}, err
	}
	return probe{nsPerOp: nsPer(start, int64(eng.Fired())), ops: int64(eng.Fired())}, nil
}

// probeGoPark: Engine.Go plus repeated Proc.Delay on the goroutine shim,
// counted the same way.
func probeGoPark() (probe, error) {
	const procs, parks = 64, 1024
	eng := sim.NewEngine()
	start := time.Now()
	for i := 0; i < procs; i++ {
		eng.Go("probe", func(p *sim.Proc) {
			for k := 0; k < parks; k++ {
				p.Delay(sim.Nanosecond)
			}
		})
	}
	if err := eng.Run(); err != nil {
		return probe{}, err
	}
	return probe{nsPerOp: nsPer(start, int64(eng.Fired())), ops: int64(eng.Fired())}, nil
}

// wakeAt parks a continuation proc once, until a fixed time.
type wakeAt struct{ t sim.Time }

func (s *wakeAt) StepProc(p *sim.Proc) {
	if p.SleepUntil(s.t) {
		return
	}
	p.Exit()
}

// probeBytesPerProc parks 2^20 continuation procs and reports heap bytes
// per parked proc at the high-water mark, as BenchmarkThreadletScale
// measures it.
func probeBytesPerProc() (probe, error) {
	const n = 1 << 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	eng := sim.NewEngineSized(n)
	body := &wakeAt{t: sim.Microsecond}
	for k := 0; k < n; k++ {
		eng.SpawnContAt(0, "t", body)
	}
	if live := eng.LiveProcs(); live != n {
		return probe{}, fmt.Errorf("spawned %d procs, %d live", n, live)
	}
	runtime.ReadMemStats(&after)
	perProc := float64(after.HeapAlloc-before.HeapAlloc) / n
	if err := eng.Run(); err != nil {
		return probe{}, err
	}
	if live := eng.LiveProcs(); live != 0 {
		return probe{}, fmt.Errorf("%d procs still live after Run", live)
	}
	return probe{nsPerOp: perProc, ops: n}, nil
}

// probeAcquire: Resource.Acquire with arrivals slightly faster than the
// service time, so grants both start immediately and queue.
func probeAcquire() (probe, error) {
	const n = 1 << 22
	r := sim.NewResource("probe")
	var now, last sim.Time
	start := time.Now()
	for i := 0; i < n; i++ {
		_, done := r.Acquire(now, 10)
		last = done
		now += 7
	}
	p := probe{nsPerOp: nsPer(start, n), ops: n}
	if r.Ops() != n || last < now {
		return probe{}, fmt.Errorf("resource served %d of %d acquires", r.Ops(), n)
	}
	return p, nil
}

// probeReadWrite: Space.Read then Space.Write on every word of a striped
// array, repeatedly; every word must end at the round count.
func probeReadWrite() (probe, error) {
	const words, rounds = 1 << 16, 32
	sp := memsys.NewSpace(8)
	arr := sp.AllocStriped(words)
	addrs := make([]memsys.Addr, words)
	for i := range addrs {
		addrs[i] = arr.At(i)
	}
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for _, a := range addrs {
			sp.Write(a, sp.Read(a)+1)
		}
	}
	p := probe{nsPerOp: nsPer(start, 2*words*rounds), ops: 2 * words * rounds}
	for _, a := range addrs {
		if v := sp.Read(a); v != rounds {
			return probe{}, fmt.Errorf("memsys word %v reads %d, want %d", a, v, rounds)
		}
	}
	return p, nil
}

// probeXeonRead: one CPU thread reading 8 bytes from each of `accesses`
// consecutive lines of a buffer, wrapping at its end. A 16 KiB buffer stays
// in the private cache; a 256 MiB one streams every line from DRAM.
func probeXeonRead(bufBytes int64, accesses int, wantDRAM bool) (probe, error) {
	sys := xeon.NewSystem(xeon.SandyBridgeXeon())
	base := sys.Alloc(bufBytes)
	lines := bufBytes / 64
	start := time.Now()
	_, err := sys.Run(func(t *xeon.CPUThread) {
		for i := 0; i < accesses; i++ {
			t.Read(base+(int64(i)%lines)*64, 8)
		}
	})
	if err != nil {
		return probe{}, err
	}
	p := probe{nsPerOp: nsPer(start, int64(accesses)), ops: int64(accesses)}
	if fromDRAM := sys.DRAMLines >= uint64(accesses)/2; fromDRAM != wantDRAM {
		return probe{}, fmt.Errorf("xeon probe over %d B fetched %d DRAM lines for %d accesses", bufBytes, sys.DRAMLines, accesses)
	}
	return p, nil
}
