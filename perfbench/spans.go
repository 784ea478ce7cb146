package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// job share its job id; Parent is the id of the enclosing span, -1 at
// the top.
type span struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	Job    int     `json:"job"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"` // seconds since the recorder started
	End    float64 `json:"end_s"`
}

// recorder keeps spans in memory until the run ends. A nil recorder is
// the untraced path: every method is a no-op on it.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil recorder).
func (r *recorder) begin(name string, job, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans), Name: name, Job: job, Parent: parent, Start: now, End: -1})
	return len(r.spans) - 1
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.t0).Seconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// add records a span that already finished, from its wall-clock end
// and duration (a sweep cell reported by the harness's CellObserver).
func (r *recorder) add(name string, job, parent int, end time.Time, d time.Duration) {
	if r == nil {
		return
	}
	e := end.Sub(r.t0).Seconds()
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: len(r.spans), Name: name, Job: job, Parent: parent, Start: e - d.Seconds(), End: e})
	r.mu.Unlock()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover.
func selfTimes(spans []span) []float64 {
	kids := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(s.Start, s.End, kids[i])
	}
	return self
}

// covered returns how much of [lo, hi] the union of the spans covers.
func covered(lo, hi float64, spans []span) float64 {
	iv := make([][2]float64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			iv = append(iv, [2]float64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, end := 0.0, lo
	for _, x := range iv {
		if x[1] <= end {
			continue
		}
		total += x[1] - max(x[0], end)
		end = x[1]
	}
	return total
}

// layerSelf sums self time by layer, the span name up to its first '.'.
func layerSelf(spans []span) map[string]float64 {
	out := map[string]float64{}
	for i, t := range selfTimes(spans) {
		layer, _, _ := strings.Cut(spans[i].Name, ".")
		out[layer] += t
	}
	return out
}

// write saves every span and each layer's self time as JSON.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(struct {
		Spans []span             `json:"spans"`
		Self  map[string]float64 `json:"layer_self_s"`
	}{r.spans, layerSelf(r.spans)})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
