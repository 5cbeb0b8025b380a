package xeon

import "testing"

// The line-access benchmarks measure one demand read through the cache
// hierarchy, booking included, from a Run root: 8 bytes from each
// consecutive line of a buffer, wrapping at its end. A single thread's
// waits always fast-forward, so no dispatch is measured. The hit buffer
// stays in the private L2; the miss buffer is twice the L3 and the
// prefetcher is off, so every access fetches its line from DRAM and evicts
// another.

func benchLineAccess(b *testing.B, cfg Config, bufBytes int64, wantFetches func(n int) uint64) {
	s := NewSystem(cfg)
	base := s.Alloc(bufBytes)
	lb := int64(cfg.LineBytes)
	lines := bufBytes / lb
	var warm uint64
	_, err := s.Run(func(t *CPUThread) {
		// One untimed pass over the buffer puts the caches in steady state.
		for i := int64(0); i < lines; i++ {
			t.Read(base+i*lb, 8)
		}
		warm = s.DRAMLines
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.Read(base+(int64(i)%lines)*lb, 8)
		}
		b.StopTimer()
	})
	if err != nil {
		b.Fatal(err)
	}
	if got, want := s.DRAMLines-warm, wantFetches(b.N); got != want {
		b.Fatalf("%d B buffer: %d DRAM lines fetched by %d timed accesses, want %d", bufBytes, got, b.N, want)
	}
}

func BenchmarkLineAccessHit(b *testing.B) {
	benchLineAccess(b, SandyBridgeXeon(), 16<<10, func(int) uint64 { return 0 })
}

func BenchmarkLineAccessMiss(b *testing.B) {
	cfg := SandyBridgeXeon()
	cfg.PrefetchDegree = 0
	benchLineAccess(b, cfg, 2*int64(cfg.L3Bytes), func(n int) uint64 { return uint64(n) })
}
