package fault

import "testing"

// FuzzParse feeds arbitrary -faults strings through the CLI grammar. Parse
// must reject bad input with an error, never a panic, and a plan it accepts
// must validate and bind to a one-node and an eight-node machine without
// panicking, with every service-time scale finite and at least 1. The seed corpus is the grammar of Parse's doc comment, so
// `go test` runs every directive form on each pass.
func FuzzParse(f *testing.F) {
	for _, spec := range []string{
		"cores=2",
		"cores=1.5@3",
		"chan=4@2",
		"link=3",
		"link=2@10us-20us",
		"link=off@1ms-2ms",
		"migstall=10us/100us",
		"backoff=100/1000",
		"chan=4@2,migstall=10us/100us",
		"cores=2@1, chan=3 ,link=off@0s-5us,backoff=8/64",
		"",
		"link=off",
		"cores=0.5",
		"cores=NaN",
		"link=+Inf@1us-2us",
	} {
		f.Add(spec, uint64(7))
	}
	f.Fuzz(func(t *testing.T, spec string, seed uint64) {
		p, err := Parse(spec, seed)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Parse(%q) accepted a plan Validate rejects: %v", spec, err)
		}
		for _, shape := range [][2]int{{8, 1}, {64, 8}} {
			r, err := p.Resolve(shape[0], shape[1])
			if err != nil {
				t.Fatalf("Parse(%q) accepted a plan that does not resolve onto %d nodelets / %d nodes: %v",
					spec, shape[0], shape[1], err)
			}
			if r == nil {
				continue
			}
			for _, f := range append(append([]float64{}, r.CoreScale...), r.ChannelScale...) {
				if !finite(f) || f < 1 {
					t.Fatalf("Parse(%q) resolved a service-time scale of %v", spec, f)
				}
			}
		}
	})
}
