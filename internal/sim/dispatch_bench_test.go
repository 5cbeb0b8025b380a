package sim

import (
	"testing"
	"time"
)

// The dispatch benchmarks measure the engine's cost per fired event for the
// two kinds of proc body: a continuation Stepper, resumed by a method call,
// and a Runner body on a coroutine host, resumed by a coroutine switch.
// Each runs benchProcs procs that sleep with staggered periods (proc i
// sleeps i+1 ns at a time), so nearly every sleep parks behind another
// proc's pending wake instead of fast-forwarding, and reports ns/event.

const benchProcs = 32

// sleeper is a continuation body that sleeps period ns, n times.
type sleeper struct {
	period Time
	n      int
}

func (s *sleeper) StepProc(p *Proc) {
	for s.n > 0 {
		s.n--
		if p.SleepUntil(p.Now() + s.period) {
			return
		}
	}
	p.Exit()
}

// runDispatchBench drives spawn(i, sleeps) for each proc, runs the engine,
// and reports the wall time per fired event.
func runDispatchBench(b *testing.B, spawn func(e *Engine, i, sleeps int)) {
	e := NewEngine()
	sleeps := b.N/benchProcs + 1
	for i := 0; i < benchProcs; i++ {
		spawn(e, i, sleeps)
	}
	b.ResetTimer()
	start := time.Now()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	elapsed := time.Since(start)
	b.StopTimer()
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(e.Fired()), "ns/event")
}

func BenchmarkDispatchContinuation(b *testing.B) {
	runDispatchBench(b, func(e *Engine, i, sleeps int) {
		e.SpawnContAt(0, "sleeper", &sleeper{period: Time(i + 1), n: sleeps})
	})
}

func BenchmarkDispatchCoroutine(b *testing.B) {
	runDispatchBench(b, func(e *Engine, i, sleeps int) {
		period := Time(i + 1)
		e.Go("sleeper", func(p *Proc) {
			for k := 0; k < sleeps; k++ {
				p.WaitUntil(p.Now() + period)
			}
		})
	})
}
