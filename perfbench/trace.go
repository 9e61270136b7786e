package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span layers: one per program layer the benchmark calls into, plus its
// own set-up and probe steps.
const (
	layerSetup    = "setup"
	layerScenario = "scenario"
	layerCampaign = "campaign"
	layerCore     = "core"
	layerFleet    = "fleet"
	layerServer   = "server"
	layerProbe    = "probe"
)

// span is one timed call into a layer's public function, recorded from
// the benchmark's side of the call. Parent is 0 for a root span.
type span struct {
	ID     int32         `json:"id"`
	Parent int32         `json:"parent"`
	Layer  string        `json:"layer"`
	Name   string        `json:"name"`
	Label  string        `json:"label,omitempty"`
	Seed   int64         `json:"seed,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// tracer keeps every span of a run in memory; the run writes them out
// when it ends. A nil *tracer records nothing, so untraced runs pay one
// nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// heapPeak is the largest live-heap size seen at any span end.
	heapPeak atomic.Uint64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(layer, name string, parent int32) int32 {
	return t.startLabeled(layer, name, "", 0, parent)
}

func (t *tracer) startLabeled(layer, name, label string, seed int64, parent int32) int32 {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Label: label, Seed: seed, Start: now})
	t.mu.Unlock()
	return id
}

// end closes span id and samples the live heap.
func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		v := s[0].Value.Uint64()
		for {
			m := t.heapPeak.Load()
			if v <= m || t.heapPeak.CompareAndSwap(m, v) {
				break
			}
		}
	}
}

// now is the tracer's clock (0 on a nil tracer).
func (t *tracer) now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch)
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that the union of its children covers. Children of
// one parent may overlap (concurrent cells of a campaign), so the union
// is taken, not the sum.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int32][]int, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			kids[p] = append(kids[p], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i := range spans {
		s := &spans[i]
		ivs := make([][2]time.Duration, 0, len(kids[s.ID]))
		for _, k := range kids[s.ID] {
			a, b := spans[k].Start, spans[k].End
			if a < s.Start {
				a = s.Start
			}
			if b > s.End {
				b = s.End
			}
			if b > a {
				ivs = append(ivs, [2]time.Duration{a, b})
			}
		}
		self[i] = s.dur() - unionLen(ivs)
	}
	return self
}

// unionLen is the total length covered by a set of intervals.
func unionLen(ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, iv := range ivs {
		switch {
		case !open:
			curA, curB, open = iv[0], iv[1], true
		case iv[0] <= curB:
			if iv[1] > curB {
				curB = iv[1]
			}
		default:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms and us convert a duration to fractional milliseconds/microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
