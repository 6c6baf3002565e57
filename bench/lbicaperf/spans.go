package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer, kept in memory and written out as
// JSON when the run ends. Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // -1 for a root span
	Cell   int    `json:"cell"`   // grid point index
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans. A nil tracer records nothing, so untraced passes run
// the same code. Like the pass counters, it is used by one goroutine at a
// time: every cell runs with one worker, and the array layer's pool hands
// control back before the caller goes on.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, parent, cell int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	now := int64(time.Since(t.epoch))
	t.spans = append(t.spans, span{ID: id, Name: name, Start: now, End: now, Parent: parent, Cell: cell})
	return id
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].End = int64(time.Since(t.epoch))
	}
}

// selfTime is s's duration minus the part of it that the given child spans
// cover. Children may overlap one another and stick out of s; each instant
// of s is subtracted at most once.
func selfTime(s span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if lo < hi {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, reach := int64(0), s.Start
	for _, v := range ivs {
		lo := max(v.lo, reach)
		if v.hi > lo {
			covered += v.hi - lo
			reach = v.hi
		}
	}
	return s.dur() - covered
}

// layerTimes splits the traced pass's host time by layer. Span IDs are
// indexes into spans.
//   - engineBuild: every engine.New, array volumes included;
//   - arrayBuild: building array cells — array.NewControlled, and the
//     volume builds array.Run makes;
//   - arrayStep: array-layer calls net of stack builds — array.Run's self
//     time, and every controlled barrier step and finish;
//   - engineRun: every cell's time net of its builds, that is, simulating.
//
// arrayStep includes the simulation of the array's volumes: the array layer
// runs them, and their host time cannot be separated from outside.
func layerTimes(spans []span) (engineBuild, arrayBuild, arrayStep, engineRun time.Duration) {
	byCell := make(map[int][]span)
	for _, s := range spans {
		byCell[s.Cell] = append(byCell[s.Cell], s)
	}
	for _, cs := range byCell {
		var builds []span
		for _, s := range cs {
			switch s.Name {
			case "engine.build":
				engineBuild += time.Duration(s.dur())
				if s.Parent >= 0 && spans[s.Parent].Name == "array.run" {
					arrayBuild += time.Duration(s.dur())
				}
				builds = append(builds, s)
			case "array.build":
				arrayBuild += time.Duration(s.dur())
				builds = append(builds, s)
			case "array.step", "array.finish":
				arrayStep += time.Duration(s.dur())
			}
		}
		for _, s := range cs {
			switch s.Name {
			case "array.run":
				var kids []span
				for _, b := range builds {
					if b.Parent == s.ID {
						kids = append(kids, b)
					}
				}
				arrayStep += time.Duration(selfTime(s, kids))
			case "cell":
				engineRun += time.Duration(selfTime(s, builds))
			}
		}
	}
	return
}
