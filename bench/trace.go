package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval around a call from the benchmark into a
// layer. Parent is the index of the enclosing span in the recorder
// (-1 for a pass root); the spans of one pass share Pass.
type span struct {
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Pass     int    `json:"pass"`
}

// spanRecorder keeps spans in memory until the run ends. It is used
// from the single goroutine that drives a traced pass; open is the
// stack of spans begun and not yet ended.
type spanRecorder struct {
	workload string
	epoch    time.Time
	pass     int
	spans    []span
	open     []int
}

func newSpanRecorder(workload string) *spanRecorder {
	return &spanRecorder{workload: workload, epoch: time.Now()}
}

// begin opens a span under the innermost open one and returns its id.
func (r *spanRecorder) begin(name string) int {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{Name: name, StartNs: int64(time.Since(r.epoch)), Parent: parent, Workload: r.workload, Pass: r.pass})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (r *spanRecorder) end(id int) {
	n := len(r.open)
	if n == 0 || r.open[n-1] != id {
		panic(fmt.Sprintf("bench: span %d ended out of order", id))
	}
	r.spans[id].EndNs = int64(time.Since(r.epoch))
	r.open = r.open[:n-1]
}

// in runs fn inside a span.
func (r *spanRecorder) in(name string, fn func()) {
	id := r.begin(name)
	fn()
	r.end(id)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its direct children cover. Children may overlap
// one another (the union is taken) and are clipped to the parent.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, k := range kids[i] {
			a, b := spans[k].StartNs, spans[k].EndNs
			if a < s.StartNs {
				a = s.StartNs
			}
			if b > s.EndNs {
				b = s.EndNs
			}
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, hi int64
		hi = s.StartNs
		for _, v := range ivs {
			if v.a > hi {
				hi = v.a
			}
			if v.b > hi {
				covered += v.b - hi
				hi = v.b
			}
		}
		self[i] = s.EndNs - s.StartNs - covered
	}
	return self
}

// passRoot is the name of the span that encloses one traced pass; its
// self time is the part of the pass no layer span covers.
const passRoot = "pass"

// selfShares sums self time by span name as a share of the total time
// of the pass roots.
func selfShares(spans []span) map[string]float64 {
	self := selfTimes(spans)
	var total int64
	byName := make(map[string]int64)
	for i, s := range spans {
		byName[s.Name] += self[i]
		if s.Parent < 0 {
			total += s.EndNs - s.StartNs
		}
	}
	out := make(map[string]float64, len(byName))
	for name, ns := range byName {
		if total > 0 {
			out[name] = float64(ns) / float64(total)
		}
	}
	return out
}

// write stores the spans as one JSON array.
func (r *spanRecorder) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+r.workload+".json")
	buf, err := json.Marshal(r.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, buf, 0o644)
}
