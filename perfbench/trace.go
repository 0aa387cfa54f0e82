package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// spanID names a recorded span; 0 is "no span" (a root's parent, and
// every span of a nil Tracer).
type spanID int32

// span is one timed call into a layer. Req is shared by every span of
// one request (one candidate, one pass, one invocation).
type span struct {
	Name   string        `json:"name"`
	ID     spanID        `json:"id"`
	Parent spanID        `json:"parent"`
	Req    int64         `json:"req"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Tracer keeps spans in memory for the traced run; they are written out
// when the run ends. A nil *Tracer records nothing, so the untraced run
// shares the same code.
type Tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	counts map[string]float64
}

func NewTracer() *Tracer { return &Tracer{t0: time.Now(), counts: map[string]float64{}} }

// Count adds v to a named count recorded at a layer boundary (work done,
// such as instructions retired), so ratios use the work measured where
// the time was.
func (t *Tracer) Count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

func (t *Tracer) count(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// Start opens a span under parent (0 for a root).
func (t *Tracer) Start(name string, parent spanID, req int64) spanID {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := spanID(len(t.spans) + 1)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: req, Start: now, End: -1})
	return id
}

// End closes a span opened by Start.
func (t *Tracer) End(id spanID) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// Spans returns a copy of the closed spans.
func (t *Tracer) Spans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time, indexed like spans: its
// duration minus the part of that interval its children cover.
func selfTimes(spans []span) []time.Duration {
	idx := make(map[spanID]int, len(spans))
	for i, s := range spans {
		idx[s.ID] = i
	}
	type iv struct{ lo, hi time.Duration }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if p, ok := idx[s.Parent]; ok {
			kids[p] = append(kids[p], iv{s.Start, s.End})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := kids[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, curLo, curHi time.Duration
		open := false
		for _, c := range ivs {
			lo, hi := max(c.lo, s.Start), min(c.hi, s.End)
			if hi <= lo {
				continue
			}
			switch {
			case !open:
				curLo, curHi, open = lo, hi, true
			case lo <= curHi:
				curHi = max(curHi, hi)
			default:
				covered += curHi - curLo
				curLo, curHi = lo, hi
			}
		}
		if open {
			covered += curHi - curLo
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// layerStats aggregates spans by name.
type layerStats struct {
	n     int
	self  time.Duration   // Σ self time
	total time.Duration   // Σ duration
	durs  []time.Duration // each span's duration
	selfs []time.Duration // each span's self time
}

// byName aggregates the recorded spans' durations and self times.
func (t *Tracer) byName() map[string]*layerStats {
	spans := t.Spans()
	self := selfTimes(spans)
	out := map[string]*layerStats{}
	for i, s := range spans {
		ls := out[s.Name]
		if ls == nil {
			ls = &layerStats{}
			out[s.Name] = ls
		}
		d := s.End - s.Start
		ls.n++
		ls.self += self[i]
		ls.total += d
		ls.durs = append(ls.durs, d)
		ls.selfs = append(ls.selfs, self[i])
	}
	return out
}

// WriteFile writes every span and count as JSON.
func (t *Tracer) WriteFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	spans := t.Spans()
	t.mu.Lock()
	b, err := json.Marshal(map[string]any{"spans": spans, "counts": t.counts})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// medianSelf is the median self time of the named spans in unit.
func (ls *layerStats) medianSelf(unit time.Duration) float64 {
	xs := make([]float64, len(ls.selfs))
	for i, d := range ls.selfs {
		xs[i] = float64(d) / float64(unit)
	}
	return quantile(xs, 0.5)
}

// medianDur is the median duration of the named spans in unit.
func (ls *layerStats) medianDur(unit time.Duration) float64 {
	xs := make([]float64, len(ls.durs))
	for i, d := range ls.durs {
		xs[i] = float64(d) / float64(unit)
	}
	return quantile(xs, 0.5)
}
