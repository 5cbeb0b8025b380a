package kernels

import (
	"fmt"
	"hash/fnv"
	"os"
	"testing"

	"emuchick/internal/machine"
	"emuchick/internal/sim"
	"emuchick/internal/trace"
)

// opCounts tallies one run's machine events by kind and folds the whole
// event stream, in emission order, into an FNV-1a digest. Equal digests
// mean every event matched in kind, issue and completion times, nodelets
// and address — the strongest cheap identity check a kernel port can meet.
type opCounts struct {
	loads, stores, remoteStores, atomics, migrations, spawns int
	digest                                                   uint64
}

// countingObserver builds an observer that fills c.
func countingObserver(c *opCounts) trace.Observer {
	h := fnv.New64a()
	return trace.FuncObserver{OnEvent: func(e trace.Event) {
		switch e.Kind {
		case trace.KindLoad:
			c.loads++
		case trace.KindStore:
			c.stores++
		case trace.KindRemoteStore:
			c.remoteStores++
		case trace.KindAtomic:
			c.atomics++
		case trace.KindMigrate:
			c.migrations++
		case trace.KindSpawn:
			c.spawns++
		}
		fmt.Fprintf(h, "%d %d %d %d %d %d;", e.Kind, e.Time, e.End, e.Nodelet, e.Target, uint64(e.Addr))
		c.digest = h.Sum64()
	}}
}

// recordedRun is one Emu kernel run's exact outputs.
type recordedRun struct {
	elapsed sim.Time
	bytes   int64
	ops     opCounts
}

type emuRecordedCase struct {
	name string
	run  func(obs trace.Observer) (sim.Time, int64, error)
	want recordedRun
}

func spmvRecorded(n int, layout SpMVLayout, grain int, stripeX bool, nodelets int, want recordedRun) emuRecordedCase {
	cfg := SpMVConfig{GridN: n, Layout: layout, GrainNNZ: grain, StripeX: stripeX, Nodelets: nodelets}
	return emuRecordedCase{
		name: fmt.Sprintf("spmv/n%d/%v/grain%d/stripeX=%v/nodelets%d", n, layout, grain, stripeX, nodelets),
		run: func(obs trace.Observer) (sim.Time, int64, error) {
			res, err := SpMV(machine.HardwareChick(), cfg, WithObserver(obs))
			return res.Elapsed, res.Bytes, err
		},
		want: want,
	}
}

func gupsRecorded(name string, mcfg machine.Config, cfg GUPSConfig, want recordedRun) emuRecordedCase {
	return emuRecordedCase{
		name: "gups/" + name,
		run: func(obs trace.Observer) (sim.Time, int64, error) {
			res, err := GUPS(mcfg, cfg, WithObserver(obs))
			return res.Elapsed, res.Bytes, err
		},
		want: want,
	}
}

// spmvRecordedTable lists the SpMV cases in the fixed sweep order: GridN
// 7 and 31, every layout, grain 1/16/80 nnz, StripeX off/on, Nodelets 0/3.
func spmvRecordedTable(want []recordedRun) []emuRecordedCase {
	var cases []emuRecordedCase
	i := 0
	for _, n := range []int{7, 31} {
		for _, layout := range SpMVLayouts {
			for _, grain := range []int{1, 16, 80} {
				for _, stripeX := range []bool{false, true} {
					for _, nodelets := range []int{0, 3} {
						var w recordedRun
						if i < len(want) {
							w = want[i]
						}
						cases = append(cases, spmvRecorded(n, layout, grain, stripeX, nodelets, w))
						i++
					}
				}
			}
		}
	}
	return cases
}

// TestEmuSpMVGUPSMatchRecordedResults pins the Emu SpMV and GUPS kernels'
// exact simulated time, byte count, per-kind operation counts and event
// stream digest across every SpMV layout and option and three GUPS shapes
// (one with a thread count that is not a multiple of the nodelet count,
// one on a two-node machine). Any change to the order or timing of a
// threadlet operation in either kernel shows up here as an exact mismatch.
// Set EMU_PRINT_RECORDED=1 to print the current values in table form.
func TestEmuSpMVGUPSMatchRecordedResults(t *testing.T) {
	cases := spmvRecordedTable(spmvRecordedWant)
	cases = append(cases,
		gupsRecorded("threads13", machine.HardwareChick(),
			GUPSConfig{TableWords: 256, Updates: 2048, Threads: 13, Seed: 11}, gupsRecordedWant[0]),
		gupsRecorded("threads64", machine.HardwareChick(),
			GUPSConfig{TableWords: 1 << 12, Updates: 1 << 14, Threads: 64, Seed: 5}, gupsRecordedWant[1]),
		gupsRecorded("two-node-threads21", machine.FullSpeed(2),
			GUPSConfig{TableWords: 1000, Updates: 5000, Threads: 21, Seed: 3}, gupsRecordedWant[2]),
	)
	print := os.Getenv("EMU_PRINT_RECORDED") != ""
	for _, c := range cases {
		var got recordedRun
		var err error
		got.elapsed, got.bytes, err = c.run(countingObserver(&got.ops))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if print {
			o := got.ops
			fmt.Printf("\t{%d, %d, opCounts{%d, %d, %d, %d, %d, %d, %#x}}, // %s\n",
				got.elapsed, got.bytes, o.loads, o.stores, o.remoteStores, o.atomics, o.migrations, o.spawns, o.digest, c.name)
			continue
		}
		if got != c.want {
			t.Errorf("%s = %+v, want %+v", c.name, got, c.want)
		}
	}
}

var spmvRecordedWant = []recordedRun{
	{69795633, 4648, opCounts{749, 49, 0, 0, 0, 48, 0xa8701faf3554b650}},              // spmv/n7/local/grain1/stripeX=false/nodelets0
	{69795633, 4648, opCounts{749, 49, 0, 0, 0, 48, 0xa8701faf3554b650}},              // spmv/n7/local/grain1/stripeX=false/nodelets3
	{69795633, 4648, opCounts{749, 49, 0, 0, 0, 48, 0xa8701faf3554b650}},              // spmv/n7/local/grain1/stripeX=true/nodelets0
	{69795633, 4648, opCounts{749, 49, 0, 0, 0, 48, 0xa8701faf3554b650}},              // spmv/n7/local/grain1/stripeX=true/nodelets3
	{101907772, 4648, opCounts{749, 49, 0, 0, 0, 16, 0xa1e8d09cbca94898}},             // spmv/n7/local/grain16/stripeX=false/nodelets0
	{101907772, 4648, opCounts{749, 49, 0, 0, 0, 16, 0xa1e8d09cbca94898}},             // spmv/n7/local/grain16/stripeX=false/nodelets3
	{101907772, 4648, opCounts{749, 49, 0, 0, 0, 16, 0xa1e8d09cbca94898}},             // spmv/n7/local/grain16/stripeX=true/nodelets0
	{101907772, 4648, opCounts{749, 49, 0, 0, 0, 16, 0xa1e8d09cbca94898}},             // spmv/n7/local/grain16/stripeX=true/nodelets3
	{337501210, 4648, opCounts{749, 49, 0, 0, 0, 3, 0xe6319491831c42cc}},              // spmv/n7/local/grain80/stripeX=false/nodelets0
	{337501210, 4648, opCounts{749, 49, 0, 0, 0, 3, 0xe6319491831c42cc}},              // spmv/n7/local/grain80/stripeX=false/nodelets3
	{337501210, 4648, opCounts{749, 49, 0, 0, 0, 3, 0xe6319491831c42cc}},              // spmv/n7/local/grain80/stripeX=true/nodelets0
	{337501210, 4648, opCounts{749, 49, 0, 0, 0, 3, 0xe6319491831c42cc}},              // spmv/n7/local/grain80/stripeX=true/nodelets3
	{60317058, 4648, opCounts{749, 5, 44, 0, 306, 48, 0xe30572d8a0aad842}},            // spmv/n7/1d/grain1/stripeX=false/nodelets0
	{60317058, 4648, opCounts{749, 5, 44, 0, 306, 48, 0xe30572d8a0aad842}},            // spmv/n7/1d/grain1/stripeX=false/nodelets3
	{69968092, 4648, opCounts{749, 8, 41, 0, 477, 48, 0x482c2eac0bb2dad0}},            // spmv/n7/1d/grain1/stripeX=true/nodelets0
	{69968092, 4648, opCounts{749, 8, 41, 0, 477, 48, 0x482c2eac0bb2dad0}},            // spmv/n7/1d/grain1/stripeX=true/nodelets3
	{123824748, 4648, opCounts{749, 5, 44, 0, 310, 16, 0xdd0652681b9033a0}},           // spmv/n7/1d/grain16/stripeX=false/nodelets0
	{123824748, 4648, opCounts{749, 5, 44, 0, 310, 16, 0xdd0652681b9033a0}},           // spmv/n7/1d/grain16/stripeX=false/nodelets3
	{146622486, 4648, opCounts{749, 8, 41, 0, 478, 16, 0x2ccbbf8d5b6db68e}},           // spmv/n7/1d/grain16/stripeX=true/nodelets0
	{146622486, 4648, opCounts{749, 8, 41, 0, 478, 16, 0x2ccbbf8d5b6db68e}},           // spmv/n7/1d/grain16/stripeX=true/nodelets3
	{443138379, 4648, opCounts{749, 5, 44, 0, 309, 3, 0x36044d5f5953dad6}},            // spmv/n7/1d/grain80/stripeX=false/nodelets0
	{443138379, 4648, opCounts{749, 5, 44, 0, 309, 3, 0x36044d5f5953dad6}},            // spmv/n7/1d/grain80/stripeX=false/nodelets3
	{516165026, 4648, opCounts{749, 8, 41, 0, 476, 3, 0x4f0e01d7f3abd6ca}},            // spmv/n7/1d/grain80/stripeX=true/nodelets0
	{516165026, 4648, opCounts{749, 8, 41, 0, 476, 3, 0x4f0e01d7f3abd6ca}},            // spmv/n7/1d/grain80/stripeX=true/nodelets3
	{41893778, 4648, opCounts{749, 7, 42, 0, 0, 49, 0xbc5ce1afed55db07}},              // spmv/n7/2d/grain1/stripeX=false/nodelets0
	{44483980, 4648, opCounts{749, 17, 32, 0, 0, 49, 0x3f58e1a0dc7aecde}},             // spmv/n7/2d/grain1/stripeX=false/nodelets3
	{53799085, 4648, opCounts{749, 8, 41, 0, 288, 49, 0x76e41b28350bbb9e}},            // spmv/n7/2d/grain1/stripeX=true/nodelets0
	{58071368, 4648, opCounts{749, 8, 41, 0, 334, 49, 0x2e267ad440c8dd09}},            // spmv/n7/2d/grain1/stripeX=true/nodelets3
	{90650400, 4648, opCounts{749, 7, 42, 0, 0, 17, 0x9ad8fa98f65f5553}},              // spmv/n7/2d/grain16/stripeX=false/nodelets0
	{77097164, 4648, opCounts{749, 17, 32, 0, 0, 24, 0x34f90db31ab040b2}},             // spmv/n7/2d/grain16/stripeX=false/nodelets3
	{123232507, 4648, opCounts{749, 8, 41, 0, 320, 17, 0x2262418ceaf24004}},           // spmv/n7/2d/grain16/stripeX=true/nodelets0
	{97551376, 4648, opCounts{749, 8, 41, 0, 359, 24, 0x309b520521bae139}},            // spmv/n7/2d/grain16/stripeX=true/nodelets3
	{198590452, 4648, opCounts{749, 7, 42, 0, 0, 8, 0x959b0ccc3573d515}},              // spmv/n7/2d/grain80/stripeX=false/nodelets0
	{401814104, 4648, opCounts{749, 17, 32, 0, 0, 4, 0x43967528487f6b07}},             // spmv/n7/2d/grain80/stripeX=false/nodelets3
	{256728167, 4648, opCounts{749, 8, 41, 0, 329, 8, 0x4e9975d43bc9ad06}},            // spmv/n7/2d/grain80/stripeX=true/nodelets0
	{611837447, 4648, opCounts{749, 8, 41, 0, 373, 4, 0x8b8d25ff7bbe6969}},            // spmv/n7/2d/grain80/stripeX=true/nodelets3
	{1221489706, 97960, opCounts{15965, 961, 0, 0, 0, 960, 0x8ee73f352c7bcf0c}},       // spmv/n31/local/grain1/stripeX=false/nodelets0
	{1221489706, 97960, opCounts{15965, 961, 0, 0, 0, 960, 0x8ee73f352c7bcf0c}},       // spmv/n31/local/grain1/stripeX=false/nodelets3
	{1221489706, 97960, opCounts{15965, 961, 0, 0, 0, 960, 0x8ee73f352c7bcf0c}},       // spmv/n31/local/grain1/stripeX=true/nodelets0
	{1221489706, 97960, opCounts{15965, 961, 0, 0, 0, 960, 0x8ee73f352c7bcf0c}},       // spmv/n31/local/grain1/stripeX=true/nodelets3
	{1098399677, 97960, opCounts{15965, 961, 0, 0, 0, 448, 0xa3c737f11d8d9a97}},       // spmv/n31/local/grain16/stripeX=false/nodelets0
	{1098399677, 97960, opCounts{15965, 961, 0, 0, 0, 448, 0xa3c737f11d8d9a97}},       // spmv/n31/local/grain16/stripeX=false/nodelets3
	{1098399677, 97960, opCounts{15965, 961, 0, 0, 0, 448, 0xa3c737f11d8d9a97}},       // spmv/n31/local/grain16/stripeX=true/nodelets0
	{1098399677, 97960, opCounts{15965, 961, 0, 0, 0, 448, 0xa3c737f11d8d9a97}},       // spmv/n31/local/grain16/stripeX=true/nodelets3
	{1010234253, 97960, opCounts{15965, 961, 0, 0, 0, 63, 0x36c81bd9316f4c7f}},        // spmv/n31/local/grain80/stripeX=false/nodelets0
	{1010234253, 97960, opCounts{15965, 961, 0, 0, 0, 63, 0x36c81bd9316f4c7f}},        // spmv/n31/local/grain80/stripeX=false/nodelets3
	{1010234253, 97960, opCounts{15965, 961, 0, 0, 0, 63, 0x36c81bd9316f4c7f}},        // spmv/n31/local/grain80/stripeX=true/nodelets0
	{1010234253, 97960, opCounts{15965, 961, 0, 0, 0, 63, 0x36c81bd9316f4c7f}},        // spmv/n31/local/grain80/stripeX=true/nodelets3
	{815538675, 97960, opCounts{15965, 113, 848, 0, 6468, 960, 0xec2b71aba5175556}},   // spmv/n31/1d/grain1/stripeX=false/nodelets0
	{815538675, 97960, opCounts{15965, 113, 848, 0, 6468, 960, 0xec2b71aba5175556}},   // spmv/n31/1d/grain1/stripeX=false/nodelets3
	{1213800565, 97960, opCounts{15965, 122, 839, 0, 10191, 960, 0x1d67c40ab30fa8a6}}, // spmv/n31/1d/grain1/stripeX=true/nodelets0
	{1213800565, 97960, opCounts{15965, 122, 839, 0, 10191, 960, 0x1d67c40ab30fa8a6}}, // spmv/n31/1d/grain1/stripeX=true/nodelets3
	{795722659, 97960, opCounts{15965, 113, 848, 0, 6528, 448, 0x41e8a2b818c596e7}},   // spmv/n31/1d/grain16/stripeX=false/nodelets0
	{795722659, 97960, opCounts{15965, 113, 848, 0, 6528, 448, 0x41e8a2b818c596e7}},   // spmv/n31/1d/grain16/stripeX=false/nodelets3
	{1203802742, 97960, opCounts{15965, 122, 839, 0, 10241, 448, 0xc564b15f6ba2708d}}, // spmv/n31/1d/grain16/stripeX=true/nodelets0
	{1203802742, 97960, opCounts{15965, 122, 839, 0, 10241, 448, 0xc564b15f6ba2708d}}, // spmv/n31/1d/grain16/stripeX=true/nodelets3
	{763491031, 97960, opCounts{15965, 113, 848, 0, 6569, 63, 0x98e6da992b3bc09e}},    // spmv/n31/1d/grain80/stripeX=false/nodelets0
	{763491031, 97960, opCounts{15965, 113, 848, 0, 6569, 63, 0x98e6da992b3bc09e}},    // spmv/n31/1d/grain80/stripeX=false/nodelets3
	{1178004915, 97960, opCounts{15965, 122, 839, 0, 10275, 63, 0xcd5d3f2cee82e337}},  // spmv/n31/1d/grain80/stripeX=true/nodelets0
	{1178004915, 97960, opCounts{15965, 122, 839, 0, 10275, 63, 0xcd5d3f2cee82e337}},  // spmv/n31/1d/grain80/stripeX=true/nodelets3
	{213171824, 97960, opCounts{15965, 121, 840, 0, 0, 961, 0x57fe342d23b69405}},      // spmv/n31/2d/grain1/stripeX=false/nodelets0
	{455935520, 97960, opCounts{15965, 321, 640, 0, 0, 961, 0xa892dbb00988459a}},      // spmv/n31/2d/grain1/stripeX=false/nodelets3
	{773680950, 97960, opCounts{15965, 122, 839, 0, 6480, 961, 0x3cfd47a1eca46833}},   // spmv/n31/2d/grain1/stripeX=true/nodelets0
	{899693747, 97960, opCounts{15965, 122, 839, 0, 7348, 961, 0x93b622e75411d890}},   // spmv/n31/2d/grain1/stripeX=true/nodelets3
	{217399978, 97960, opCounts{15965, 121, 840, 0, 0, 449, 0xcb8638ee220e78be}},      // spmv/n31/2d/grain16/stripeX=false/nodelets0
	{415592798, 97960, opCounts{15965, 321, 640, 0, 0, 384, 0x227c225d368fc4b2}},      // spmv/n31/2d/grain16/stripeX=false/nodelets3
	{811421263, 97960, opCounts{15965, 122, 839, 0, 6992, 449, 0x777c981137e2e0ce}},   // spmv/n31/2d/grain16/stripeX=true/nodelets0
	{925649838, 97960, opCounts{15965, 122, 839, 0, 7854, 384, 0xa9cdcf117753847a}},   // spmv/n31/2d/grain16/stripeX=true/nodelets3
	{607983799, 97960, opCounts{15965, 121, 840, 0, 0, 64, 0x7d305395961b91fe}},       // spmv/n31/2d/grain80/stripeX=false/nodelets0
	{452706258, 97960, opCounts{15965, 321, 640, 0, 0, 96, 0x4e68996bc9a800e8}},       // spmv/n31/2d/grain80/stripeX=false/nodelets3
	{919236336, 97960, opCounts{15965, 122, 839, 0, 7377, 64, 0x486c9eb983ae224d}},    // spmv/n31/2d/grain80/stripeX=true/nodelets0
	{948170771, 97960, opCounts{15965, 122, 839, 0, 8117, 96, 0xfc0aca3dcdce95d2}},    // spmv/n31/2d/grain80/stripeX=true/nodelets3
}

var gupsRecordedWant = []recordedRun{
	{30366845, 16384, opCounts{0, 0, 0, 2048, 0, 13, 0xa75635ad9eeda8bd}},    // gups/threads13
	{214200170, 131072, opCounts{0, 0, 0, 16384, 0, 64, 0x68b7c2d5e7ddd104}}, // gups/threads64
	{25633250, 40000, opCounts{0, 0, 0, 5000, 0, 21, 0x538174919f01a5d4}},    // gups/two-node-threads21
}
