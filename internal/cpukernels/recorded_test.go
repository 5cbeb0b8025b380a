package cpukernels

import (
	"fmt"
	"testing"

	"emuchick/internal/sim"
	"emuchick/internal/workload"
	"emuchick/internal/xeon"
)

// recorded is one kernel run's exact outputs. The dram and writeback
// fields are pinned for the pointer chase only (ChaseStats).
type recorded struct {
	elapsed   sim.Time
	bytes     int64
	dram      int64
	writeback int64
}

// recordedCase runs one kernel configuration and reports its outputs.
type recordedCase struct {
	name string
	run  func() (recorded, error)
	want recorded
}

func chaseCase(block int, mode workload.ShuffleMode, want recorded) recordedCase {
	return recordedCase{
		name: fmt.Sprintf("chase/block%d/%v", block, mode),
		run: func() (recorded, error) {
			res, st, err := PointerChaseWithStats(xeon.SandyBridgeXeon(), ChaseConfig{
				Elements: 1 << 16, BlockSize: block, Mode: mode, Seed: 11, Threads: 32,
			})
			return recorded{res.Elapsed, res.Bytes, st.DRAMLineBytes, st.WritebackBytes}, err
		},
		want: want,
	}
}

func gupsCase(name string, cfg GUPSConfig, want recorded) recordedCase {
	return recordedCase{
		name: "gups/" + name,
		run: func() (recorded, error) {
			res, err := GUPS(xeon.SandyBridgeXeon(), cfg)
			return recorded{elapsed: res.Elapsed, bytes: res.Bytes}, err
		},
		want: want,
	}
}

func streamCase(threads int, want recorded) recordedCase {
	return recordedCase{
		name: fmt.Sprintf("stream/threads%d", threads),
		run: func() (recorded, error) {
			res, err := StreamAdd(xeon.SandyBridgeXeon(), StreamConfig{Elements: 1 << 16, Threads: threads})
			return recorded{elapsed: res.Elapsed, bytes: res.Bytes}, err
		},
		want: want,
	}
}

func spmvCase(v SpMVVariant, grain int, want recorded) recordedCase {
	return recordedCase{
		name: fmt.Sprintf("spmv/%v/grain%d", v, grain),
		run: func() (recorded, error) {
			res, err := SpMV(xeon.HaswellXeon(), SpMVConfig{GridN: 128, Variant: v, Threads: 56, GrainNNZ: grain})
			return recorded{elapsed: res.Elapsed, bytes: res.Bytes}, err
		},
		want: want,
	}
}

// TestCPUKernelsMatchRecordedResults pins every CPU kernel's exact
// simulated time, byte count and (for the chase) DRAM traffic at sizes the
// quick-scale figure goldens do not reach: the chase over 2^16 elements at
// three block sizes in every shuffle mode, GUPS in and out of cache, STREAM
// at one and 32 threads, and all three SpMV variants. Any change to the
// order or timing of a Xeon model operation shows up here as an exact
// mismatch.
func TestCPUKernelsMatchRecordedResults(t *testing.T) {
	cases := []recordedCase{
		chaseCase(1, workload.NoShuffle, recorded{30948320, 1048576, 1049088, 0}),
		chaseCase(1, workload.IntraBlockShuffle, recorded{30948320, 1048576, 1049088, 0}),
		chaseCase(1, workload.BlockShuffle, recorded{78702740, 1048576, 1048576, 0}),
		chaseCase(1, workload.FullBlockShuffle, recorded{78702740, 1048576, 1048576, 0}),
		chaseCase(64, workload.NoShuffle, recorded{30948320, 1048576, 1049088, 0}),
		chaseCase(64, workload.IntraBlockShuffle, recorded{57378880, 1048576, 1048832, 0}),
		chaseCase(64, workload.BlockShuffle, recorded{31479340, 1048576, 1049088, 0}),
		chaseCase(64, workload.FullBlockShuffle, recorded{56919560, 1048576, 1049088, 0}),
		chaseCase(512, workload.NoShuffle, recorded{30948320, 1048576, 1049088, 0}),
		chaseCase(512, workload.IntraBlockShuffle, recorded{69189800, 1048576, 1048576, 0}),
		chaseCase(512, workload.BlockShuffle, recorded{30846960, 1048576, 1049088, 0}),
		chaseCase(512, workload.FullBlockShuffle, recorded{66657760, 1048576, 1048576, 0}),
		gupsCase("in-cache", GUPSConfig{TableWords: 1 << 12, Updates: 1 << 14, Threads: 16, Seed: 5}, recorded{elapsed: 22943490, bytes: 131072}),
		gupsCase("out-of-cache", GUPSConfig{TableWords: 1 << 22, Updates: 1 << 15, Threads: 32, Seed: 7}, recorded{elapsed: 118217960, bytes: 262144}),
		streamCase(1, recorded{elapsed: 552025360, bytes: 1572864}),
		streamCase(32, recorded{elapsed: 42909830, bytes: 1572864}),
		spmvCase(SpMVMKL, 0, recorded{elapsed: 101778538, bytes: 1695744}),
		spmvCase(SpMVCilkFor, 0, recorded{elapsed: 108759132, bytes: 1695744}),
		spmvCase(SpMVCilkSpawn, 16, recorded{elapsed: 181192280, bytes: 1695744}),
		spmvCase(SpMVCilkSpawn, 16384, recorded{elapsed: 374721040, bytes: 1695744}),
	}
	for _, c := range cases {
		got, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s = %+v, want %+v", c.name, got, c.want)
		}
	}
}
