package xeon

import (
	"strings"
	"testing"

	"emuchick/internal/sim"
)

func TestConfigValidation(t *testing.T) {
	for _, cfg := range []Config{SandyBridgeXeon(), HaswellXeon()} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s invalid: %v", cfg.Name, err)
		}
	}
	bad := SandyBridgeXeon()
	bad.LineBytes = 48 // not a power of two
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "LineBytes") {
		t.Errorf("LineBytes check missing: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.ThreadsPerCore = 0 },
		func(c *Config) { c.CoreHz = 0 },
		func(c *Config) { c.L2Bytes = 0 },
		func(c *Config) { c.L3Assoc = 0 },
		func(c *Config) { c.L2Bytes = 100 }, // not divisible into sets
		func(c *Config) { c.L3Bytes = 100 },
		func(c *Config) { c.Channels = 0 },
		func(c *Config) { c.ChannelBytesPerSec = 0 },
		func(c *Config) { c.RowBytes = 32 }, // smaller than a line
		func(c *Config) { c.BanksPerChannel = 0 },
		func(c *Config) { c.RowHitLatency = 0 },
		func(c *Config) { c.RowHitLatency = 100 * sim.Nanosecond; c.RowMissLatency = 50 * sim.Nanosecond },
		func(c *Config) { c.PrefetchDegree = -1 },
		func(c *Config) { c.SpawnOverhead = -1 },
	}
	for i, mut := range mutations {
		c := SandyBridgeXeon()
		mut(&c)
		if c.Validate() == nil {
			t.Errorf("mutation %d not caught", i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("NewSystem with invalid config did not panic")
		}
	}()
	bad2 := SandyBridgeXeon()
	bad2.Cores = 0
	NewSystem(bad2)
}

func TestSystemAccessors(t *testing.T) {
	s := NewSystem(SandyBridgeXeon())
	base := s.Alloc(1 << 12)
	elapsed, err := s.Run(func(th *CPUThread) {
		if th.System() != s {
			t.Error("System() wrong")
		}
		th.Compute(0) // free
		for i := int64(0); i < 32; i++ {
			th.Read(base+i*64, 8)
		}
		th.Sync() // no children: immediate
		th.Read(base, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if u := s.PeakChannelUtilization(elapsed); u <= 0 {
		t.Fatalf("PeakChannelUtilization = %v", u)
	}
	if r := (&System{mem: newDRAM(&s.Cfg)}).RowHitRatio(); r != 0 {
		t.Fatalf("empty RowHitRatio = %v", r)
	}
}

func TestSandyBridgeNominalBandwidth(t *testing.T) {
	// The paper: four channels at 1600 MHz -> 51.2 GB/s peak theoretical.
	if got := SandyBridgeXeon().PeakMemoryBytesPerSec(); got != 51.2e9 {
		t.Fatalf("Sandy Bridge peak = %g, want 51.2e9", got)
	}
	// Haswell: 85 GB/s per socket, 4 sockets.
	got := HaswellXeon().PeakMemoryBytesPerSec()
	if got < 330e9 || got > 350e9 {
		t.Fatalf("Haswell peak = %g, want ~339.2e9", got)
	}
}

func TestAllocAligned(t *testing.T) {
	s := NewSystem(SandyBridgeXeon())
	a := s.Alloc(100)
	b := s.Alloc(1)
	if a%64 != 0 || b%64 != 0 {
		t.Fatal("allocations not line aligned")
	}
	if b <= a {
		t.Fatal("allocations overlap")
	}
}

func TestCachedReadFasterThanCold(t *testing.T) {
	s := NewSystem(SandyBridgeXeon())
	base := s.Alloc(64)
	var cold, warm sim.Time
	_, err := s.Run(func(th *CPUThread) {
		t0 := th.Now()
		th.Read(base, 8)
		cold = th.Now() - t0
		t0 = th.Now()
		th.Read(base, 8)
		warm = th.Now() - t0
	})
	if err != nil {
		t.Fatal(err)
	}
	if warm >= cold {
		t.Fatalf("cached read (%v) not faster than cold (%v)", warm, cold)
	}
	if warm != s.Cfg.L2Latency {
		t.Fatalf("warm read = %v, want L2 latency %v", warm, s.Cfg.L2Latency)
	}
}

func TestSequentialBeatsRandomViaPrefetch(t *testing.T) {
	const n = 1 << 14 // 16384 lines = 1 MiB
	timeFor := func(pattern func(i int64) int64) sim.Time {
		s := NewSystem(SandyBridgeXeon())
		base := s.Alloc(n * 64)
		elapsed, err := s.Run(func(th *CPUThread) {
			for i := int64(0); i < n; i++ {
				th.Read(base+pattern(i)*64, 8)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	seq := timeFor(func(i int64) int64 { return i })
	// Stride the accesses so lines never repeat and never run
	// sequentially (multiplicative shuffle by an odd constant mod n).
	rnd := timeFor(func(i int64) int64 { return (i * 2654435761) & (n - 1) })
	if seq*2 >= rnd {
		t.Fatalf("prefetcher ineffective: sequential %v vs random %v", seq, rnd)
	}
}

func TestPrefetchDisabled(t *testing.T) {
	cfg := SandyBridgeXeon()
	cfg.PrefetchDegree = 0
	s := NewSystem(cfg)
	base := s.Alloc(1 << 20)
	_, err := s.Run(func(th *CPUThread) {
		for i := int64(0); i < 64; i++ {
			th.Read(base+i*64, 8)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Exactly the 64 demand lines, no prefetches.
	if s.DRAMLines != 64 {
		t.Fatalf("DRAMLines = %d, want 64", s.DRAMLines)
	}
}

func TestAccessSpanningTwoLines(t *testing.T) {
	cfg := SandyBridgeXeon()
	cfg.PrefetchDegree = 0
	s := NewSystem(cfg)
	base := s.Alloc(128)
	_, err := s.Run(func(th *CPUThread) {
		th.Read(base+60, 8) // crosses the line boundary
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.DRAMLines != 2 {
		t.Fatalf("DRAMLines = %d, want 2", s.DRAMLines)
	}
}

func TestSpawnSyncAndCorePlacement(t *testing.T) {
	s := NewSystem(SandyBridgeXeon())
	cores := map[int]bool{}
	_, err := s.Run(func(th *CPUThread) {
		for i := 0; i < 16; i++ {
			th.Spawn(&computeBody{cycles: 1000, cores: cores})
		}
		th.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Root takes core 0; 16 children must cover many distinct cores.
	if len(cores) < 12 {
		t.Fatalf("children placed on only %d cores", len(cores))
	}
}

func TestComputeParallelSpeedup(t *testing.T) {
	elapsedFor := func(workers int) sim.Time {
		s := NewSystem(SandyBridgeXeon())
		elapsed, err := s.Run(func(th *CPUThread) {
			for w := 0; w < workers; w++ {
				th.Spawn(&computeBody{cycles: 2_600_000}) // 1 ms each
			}
			th.Sync()
		})
		if err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	one := elapsedFor(1)
	eight := elapsedFor(8)
	if eight > one*3/2 {
		t.Fatalf("8 workers on 16 cores should run ~concurrently: 1->%v 8->%v", one, eight)
	}
}

func TestWriteWalksHierarchy(t *testing.T) {
	cfg := SandyBridgeXeon()
	cfg.PrefetchDegree = 0
	s := NewSystem(cfg)
	base := s.Alloc(64)
	_, err := s.Run(func(th *CPUThread) {
		th.Write(base, 8)
		t0 := th.Now()
		th.Read(base, 8) // allocated by the write
		if th.Now()-t0 != s.Cfg.L2Latency {
			t.Errorf("read after write not an L2 hit")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	cfg := SandyBridgeXeon()
	cfg.PrefetchDegree = 0
	// Tiny caches so evictions happen quickly.
	cfg.L2Bytes = 2 * 64
	cfg.L2Assoc = 1
	cfg.L3Bytes = 4 * 64
	cfg.L3Assoc = 1
	s := NewSystem(cfg)
	base := s.Alloc(1 << 16)
	_, err := s.Run(func(th *CPUThread) {
		// Dirty many distinct lines; they must eventually wash out of
		// the 4-line L3 as writebacks.
		for i := int64(0); i < 64; i++ {
			th.Write(base+i*64, 8)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.WritebackLines == 0 {
		t.Fatal("no writebacks recorded")
	}
	if s.WritebackLines > s.DRAMLines {
		t.Fatalf("writebacks (%d) exceed fetches (%d)", s.WritebackLines, s.DRAMLines)
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	cfg := SandyBridgeXeon()
	cfg.PrefetchDegree = 0
	cfg.L2Bytes = 2 * 64
	cfg.L2Assoc = 1
	cfg.L3Bytes = 4 * 64
	cfg.L3Assoc = 1
	s := NewSystem(cfg)
	base := s.Alloc(1 << 16)
	_, err := s.Run(func(th *CPUThread) {
		for i := int64(0); i < 64; i++ {
			th.Read(base+i*64, 8)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.WritebackLines != 0 {
		t.Fatalf("clean lines wrote back %d times", s.WritebackLines)
	}
}

func TestXeonDeterminism(t *testing.T) {
	trial := func() (sim.Time, uint64) {
		s := NewSystem(SandyBridgeXeon())
		base := s.Alloc(1 << 16)
		elapsed, err := s.Run(func(th *CPUThread) {
			for w := 0; w < 4; w++ {
				th.Spawn(&stridedReads{base: base, w: int64(w)})
			}
			th.Sync()
		})
		if err != nil {
			t.Fatal(err)
		}
		return elapsed, s.DRAMLines
	}
	e1, d1 := trial()
	e2, d2 := trial()
	if e1 != e2 || d1 != d2 {
		t.Fatalf("nondeterministic: (%v,%d) vs (%v,%d)", e1, d1, e2, d2)
	}
}

func TestRowHitRatioTracksLocality(t *testing.T) {
	cfg := SandyBridgeXeon()
	cfg.PrefetchDegree = 0
	s := NewSystem(cfg)
	base := s.Alloc(8 << 10) // one DRAM row
	_, err := s.Run(func(th *CPUThread) {
		for i := int64(0); i < 128; i++ {
			th.Read(base+i*64, 8)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if r := s.RowHitRatio(); r < 0.9 {
		t.Fatalf("sequential row-hit ratio = %v", r)
	}
}

// computeBody records its core in cores (when set), then computes cycles.
type computeBody struct {
	cycles int64
	cores  map[int]bool
	issued bool
}

func (b *computeBody) Step(t *CPUThread) bool {
	if b.issued {
		return true
	}
	b.issued = true
	if b.cores != nil {
		b.cores[t.Core()] = true
	}
	return !t.CCompute(b.cycles)
}

// stridedReads reads 16 bytes from each of 256 lines interleaved four
// ways, starting at line w.
type stridedReads struct {
	base, w, i int64
}

func (b *stridedReads) Step(t *CPUThread) bool {
	for b.i < 256 {
		addr := b.base + (b.i*4+b.w)*64
		b.i++
		if t.CRead(addr, 16) {
			return false
		}
	}
	return true
}
