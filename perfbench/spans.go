package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Layer is the
// name's prefix before the first dot. Req groups the spans of one request
// (a served job id, or a direct pass).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Req    string `json:"req"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps the traced run's spans in memory; they are written out when
// the run ends. A nil tracer records nothing, which is how untraced runs
// call the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name, req string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Req: req, Start: now, End: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// setReq relabels a span's request id once it is known (a job id is
// assigned by the server's reply to the submit inside the span).
func (t *tracer) setReq(id int, req string) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].Req = req
	t.mu.Unlock()
}

// unresolved marks a span opened where its parent is unknown: a
// file-system call on a server goroutine knows only its request id.
const unresolved = -2

// resolved returns the recorded spans with each unresolved span attached to
// the innermost span of the same request that contains it.
func (t *tracer) resolved() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	byReq := map[string][]int{}
	for i, s := range out {
		if s.Parent != unresolved {
			byReq[s.Req] = append(byReq[s.Req], i)
		}
	}
	for i := range out {
		s := &out[i]
		if s.Parent != unresolved {
			continue
		}
		s.Parent = -1
		best := -1
		for _, j := range byReq[s.Req] {
			c := out[j]
			if c.Start <= s.Start && c.End >= s.End && (best < 0 || c.Start >= out[best].Start) {
				best = j
			}
		}
		if best >= 0 {
			s.Parent = out[best].ID
		}
	}
	return out
}

// selfTimes sums, per layer, each span's duration minus the part of it its
// child spans cover.
func selfTimes(spans []span) map[string]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]int64{}
	for _, s := range spans {
		if s.End < s.Start {
			continue
		}
		self[s.layer()] += s.End - s.Start - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(p span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	curB = -1
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
