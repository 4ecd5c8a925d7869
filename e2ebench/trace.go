package main

import (
	"sort"
	"time"
)

// The traced run's span recorder. Spans are recorded by the benchmark's
// own code around its calls into each layer and kept in memory until the
// run ends. Each goroutine writes its own lane, so recording takes no
// lock; a lane is read only after the goroutine that owns it has ended.

type spanID int64

// noParent marks a root span.
const noParent spanID = -1

type span struct {
	id, parent spanID
	name       string
	lane       int
	start, end time.Duration // since the tracer's origin
}

type tracer struct {
	origin time.Time
	lanes  []*lane
	// off makes begin and end no-ops, so a step composed with this tracer
	// runs as it would without spans.
	off bool
}

type lane struct {
	t     *tracer
	idx   int
	spans []span
}

func newTracer(lanes int) *tracer {
	t := &tracer{origin: time.Now()}
	for i := 0; i < lanes; i++ {
		t.lanes = append(t.lanes, &lane{t: t, idx: i})
	}
	return t
}

// begin opens a span on the lane and returns its id; end closes it.
func (l *lane) begin(name string, parent spanID) spanID {
	if l.t.off {
		return noParent
	}
	id := spanID(l.idx)<<32 | spanID(len(l.spans))
	l.spans = append(l.spans, span{id: id, parent: parent, name: name, lane: l.idx, start: time.Since(l.t.origin)})
	return id
}

func (l *lane) end(id spanID) {
	if l.t.off {
		return
	}
	l.spans[int(id&(1<<32-1))].end = time.Since(l.t.origin)
}

// spans returns every lane's spans.
func (t *tracer) spans() []span {
	var out []span
	for _, l := range t.lanes {
		out = append(out, l.spans...)
	}
	return out
}

// selfTimes maps each span to its self time: its duration minus the part
// of its interval that its child spans cover. Overlapping children (from
// concurrent lanes) are counted once.
func selfTimes(spans []span) map[spanID]time.Duration {
	children := map[spanID][]span{}
	for _, s := range spans {
		if s.parent != noParent {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[spanID]time.Duration, len(spans))
	for _, s := range spans {
		out[s.id] = s.end - s.start - covered(s.start, s.end, children[s.id])
	}
	return out
}

// covered returns how much of [lo, hi) the union of the spans covers.
func covered(lo, hi time.Duration, cs []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, c := range cs {
		a, b := max(c.start, lo), min(c.end, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfByName sums self time per span name, in milliseconds.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.name] += ms(self[s.id])
	}
	return out
}

// selfByLaneName sums self time per (lane, span name), in milliseconds.
func selfByLaneName(spans []span) map[int]map[string]float64 {
	self := selfTimes(spans)
	out := map[int]map[string]float64{}
	for _, s := range spans {
		if out[s.lane] == nil {
			out[s.lane] = map[string]float64{}
		}
		out[s.lane][s.name] += ms(self[s.id])
	}
	return out
}

// countByName counts spans per name.
func countByName(spans []span) map[string]int {
	out := map[string]int{}
	for _, s := range spans {
		out[s.name]++
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
