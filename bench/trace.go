package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one probe (or
// one walked operation) share Probe, the ID of their root span; Parent
// is the ID of the span that caused this one, 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Probe  int64  `json:"probe"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory around the bench's own calls; nothing
// is written until the run ends. A nil tracer records nothing, which is
// how the gated (untraced) runs execute the same code.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID (0 from a nil tracer).
func (t *tracer) begin(name string, parent, probe int64) int64 {
	if t == nil {
		return 0
	}
	return t.beginAt(name, parent, probe, time.Now())
}

// beginAt opens a span that started at a time measured elsewhere (a
// probe's due time).
func (t *tracer) beginAt(name string, parent, probe int64, at time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	id := int64(len(t.spans) + 1)
	if probe == 0 {
		probe = id // a root span names its own probe
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Probe: probe, Name: name, Start: int64(at.Sub(t.epoch))})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	t.endAt(id, time.Now())
}

func (t *tracer) endAt(id int64, at time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = int64(at.Sub(t.epoch))
	t.mu.Unlock()
}

// selfTimes returns every span's self time: its duration minus the part
// of its interval that its child spans cover. Overlapping children are
// merged first, so time two children both cover is subtracted once.
func selfTimes(spans []span) map[int64]int64 {
	type iv struct{ lo, hi int64 }
	kids := make(map[int64][]iv)
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			kids[p.ID] = append(kids[p.ID], iv{lo, hi})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		covered, end := int64(0), s.Start
		for _, c := range ivs {
			if c.hi <= end {
				continue
			}
			covered += c.hi - max(c.lo, end)
			end = c.hi
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// layerStat is one row of the per-layer table: a span name's count and
// self-time distribution.
type layerStat struct {
	Name    string
	Count   int
	P50     time.Duration
	P99     time.Duration
	TotalNS int64
}

// table folds the recorded spans into one row per span name, ordered by
// total self time.
func (t *tracer) table() []layerStat {
	if t == nil {
		return nil
	}
	self := selfTimes(t.spans)
	by := make(map[string][]float64)
	for _, s := range t.spans {
		by[s.Name] = append(by[s.Name], float64(self[s.ID]))
	}
	var out []layerStat
	for name, v := range by {
		sort.Float64s(v)
		var tot int64
		for _, x := range v {
			tot += int64(x)
		}
		out = append(out, layerStat{Name: name, Count: len(v),
			P50: time.Duration(percentile(v, 50)), P99: time.Duration(percentile(v, 99)), TotalNS: tot})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalNS > out[j].TotalNS })
	return out
}

// writeJSONL writes the spans one JSON object a line.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
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
