package main

import (
	"math"
	"sort"

	"pargraph/internal/diskcache"
	"pargraph/internal/manifest"
)

// jobRec is one attempted job of a round.
type jobRec struct {
	kind  string  // round position's job kind, e.g. "e1_fig1" or "listrank-mta"
	class string  // "warm" or "cold" (serve-mix); "" in-process
	lat   float64 // wall seconds from submission to the last artifact byte
	ok    bool    // finished and passed every output check
}

// roundRec is one pass over a workload's fixed job sequence.
type roundRec struct {
	wall, cpu float64 // wall and working-process CPU seconds of the round
	jobs      []jobRec
	complete  bool      // every job of the round was attempted
	ticks     hostTicks // host CPU ticks, and those stolen, during the round
	counts    counts

	// wscale and cscale are the host-speed factors of the calibration
	// samples around the round (see calib.go); 0 means unscaled.
	wscale, cscale float64
}

// scaled returns copies of the rounds with wall times and latencies
// multiplied by wscale and CPU by cscale.
func scaled(rounds []roundRec) []roundRec {
	out := make([]roundRec, len(rounds))
	for i, r := range rounds {
		if r.wscale > 0 {
			r.wall *= r.wscale
			r.cpu *= r.cscale
			r.jobs = append([]jobRec(nil), r.jobs...)
			for k := range r.jobs {
				r.jobs[k].lat *= r.wscale
			}
		}
		out[i] = r
	}
	return out
}

// counts are the exact per-round counters that must repeat between
// rounds and between runs of one seed.
type counts struct {
	InputHits, InputMisses, InputPuts    int64
	ResultHits, ResultMisses, ResultPuts int64
	Rejects                              int64
	CellsComputed, CellsCached           int64
}

// addRun folds one job's cache counters and cell provenance in.
func (c *counts) addRun(in, res diskcache.Stats, cells []manifest.Result) {
	c.InputHits += in.Hits
	c.InputMisses += in.Misses
	c.InputPuts += in.Puts
	c.ResultHits += res.Hits
	c.ResultMisses += res.Misses
	c.ResultPuts += res.Puts
	c.Rejects += in.Rejects + res.Rejects
	for _, r := range cells {
		if r.Source == "cache" {
			c.CellsCached++
		} else {
			c.CellsComputed++
		}
	}
}

// summary is the end-to-end view of a run's complete rounds.
type summary struct {
	rounds            int
	attempted, failed int
	wall, cpu         float64
	jobsPerS          float64
	p50               float64 // geometric mean over kinds of per-kind median latency
	tail              float64
	tailPct           float64 // percentile of job_tail_s
	tailN             int     // pooled latency samples
	cpuMSPerJob       float64
	kindP50           map[string]float64 // median latency per job kind
}

// summarize folds the complete rounds into the end-to-end metrics.
// Rounds cut short do not count at all, so every job kind carries the
// same weight in every run.
func summarize(rounds []roundRec) summary {
	var s summary
	byKind := map[string][]float64{}
	var pooled []float64
	for _, r := range rounds {
		if !r.complete {
			continue
		}
		s.rounds++
		s.wall += r.wall
		s.cpu += r.cpu
		for _, j := range r.jobs {
			s.attempted++
			if !j.ok {
				s.failed++
				continue
			}
			byKind[j.kind] = append(byKind[j.kind], j.lat)
			pooled = append(pooled, j.lat)
		}
	}
	good := s.attempted - s.failed
	if s.wall > 0 {
		s.jobsPerS = float64(good) / s.wall
	}
	if s.attempted > 0 {
		s.cpuMSPerJob = 1000 * s.cpu / float64(s.attempted)
	}
	meds := make([]float64, 0, len(byKind))
	s.kindP50 = map[string]float64{}
	for k, v := range byKind {
		s.kindP50[k] = median(v)
		meds = append(meds, s.kindP50[k])
	}
	s.p50 = geomean(meds)
	s.tail, s.tailPct = tailPercentile(pooled, 10)
	s.tailN = len(pooled)
	return s
}

// median returns the middle value (mean of the two middle values for
// an even count); 0 for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean returns the geometric mean of positive values; 0 when there
// are none.
func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(v)))
}

// tailPercentile returns the highest percentile of v that still has at
// least beyond samples above it, with that percentile (the share of
// samples at or below the value, in percent). It never reports below
// the median: with fewer than 2*beyond+2 samples it returns the upper
// median.
func tailPercentile(v []float64, beyond int) (value, pct float64) {
	n := len(v)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := max(n-1-beyond, n/2)
	return s[i], 100 * float64(i+1) / float64(n)
}
