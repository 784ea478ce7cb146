package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	v := make([]float64, 40)
	for i := range v {
		v[len(v)-1-i] = float64(i + 1) // 40..1, unsorted input
	}
	got, pct := tailPercentile(v, 10)
	// 30 is the highest value with ten samples (31..40) above it.
	if got != 30 || !near(pct, 75) {
		t.Fatalf("tail = %v at p%v, want 30 at p75", got, pct)
	}
	beyond := 0
	for _, x := range v {
		if x > got {
			beyond++
		}
	}
	if beyond != 10 {
		t.Fatalf("%d samples beyond the tail, want 10", beyond)
	}
}

func TestTailPercentileFewSamplesIsMedian(t *testing.T) {
	for _, tc := range []struct {
		v    []float64
		want float64
	}{
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21}, 11},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22}, 12},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23}, 13},
	} {
		if got, _ := tailPercentile(tc.v, 10); got != tc.want {
			t.Errorf("tailPercentile(%v) = %v, want %v", tc.v, got, tc.want)
		}
	}
	if got, pct := tailPercentile(nil, 10); got != 0 || pct != 0 {
		t.Errorf("empty input: %v at p%v", got, pct)
	}
}

func TestGeomeanOfKindMedians(t *testing.T) {
	rounds := []roundRec{
		{complete: true, wall: 1, jobs: []jobRec{{kind: "a", lat: 1, ok: true}, {kind: "b", lat: 100, ok: true}}},
		{complete: true, wall: 1, jobs: []jobRec{{kind: "a", lat: 3, ok: true}, {kind: "b", lat: 300, ok: true}}},
		{complete: true, wall: 1, jobs: []jobRec{{kind: "a", lat: 2, ok: true}, {kind: "b", lat: 200, ok: true}}},
	}
	// The kind medians are 2 and 200; their geometric mean is 20.
	if got := summarize(rounds).p50; !near(got, 20) {
		t.Fatalf("p50 = %v, want 20", got)
	}
	if got := geomean(nil); got != 0 {
		t.Fatalf("geomean(nil) = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
}

func TestSummarizeCountsOnlyCompleteRounds(t *testing.T) {
	rounds := []roundRec{
		{complete: true, wall: 2, cpu: 1, jobs: []jobRec{{kind: "a", lat: 1, ok: true}, {kind: "b", lat: 1, ok: false}}},
		{complete: true, wall: 2, cpu: 3, jobs: []jobRec{{kind: "a", lat: 1, ok: true}, {kind: "b", lat: 1, ok: true}}},
		// Cut short: neither its jobs, wall, nor CPU count.
		{complete: false, wall: 50, cpu: 50, jobs: []jobRec{{kind: "a", lat: 9, ok: true}}},
	}
	s := summarize(rounds)
	if s.rounds != 2 || s.attempted != 4 || s.failed != 1 {
		t.Fatalf("rounds %d attempted %d failed %d, want 2 4 1", s.rounds, s.attempted, s.failed)
	}
	// Three correct jobs in 4 s of complete rounds; 4 s of CPU over 4 jobs.
	if !near(s.jobsPerS, 0.75) || !near(s.cpuMSPerJob, 1000) {
		t.Fatalf("jobs/s %v cpu ms/job %v, want 0.75 and 1000", s.jobsPerS, s.cpuMSPerJob)
	}
	if s.tailN != 3 {
		t.Fatalf("tail over %d samples, want the 3 correct jobs", s.tailN)
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "runner.RunContext", Parent: -1, Start: 0, End: 10},
		{ID: 1, Name: "harness.cell", Parent: 0, Start: 1, End: 4},
		{ID: 2, Name: "harness.cell", Parent: 0, Start: 2, End: 5},  // overlaps the first
		{ID: 3, Name: "harness.cell", Parent: 0, Start: 9, End: 12}, // runs past the parent
	}
	self := layerSelf(spans)
	if !near(self["runner"], 10-4-1) || !near(self["harness"], 3+3+3) {
		t.Fatalf("self times %v, want runner 5 and harness 9", self)
	}
}

func TestLeastStolenDropsHighestShareInOrder(t *testing.T) {
	short := make([]roundRec, minSelect-1)
	if kept, dropped := leastStolen(short); len(kept) != len(short) || dropped != nil {
		t.Fatalf("%d rounds: kept %d, dropped %d; want all kept", len(short), len(kept), len(dropped))
	}
	rounds := make([]roundRec, 30)
	for i := range rounds {
		rounds[i].wall = float64(i)
		rounds[i].ticks = hostTicks{total: 20, steal: uint64(i % 3)} // shares 0, 5% and 10%
	}
	kept, dropped := leastStolen(rounds)
	if len(kept) != 20 || len(dropped) != 10 {
		t.Fatalf("kept %d dropped %d, want 20 and 10", len(kept), len(dropped))
	}
	for i, r := range kept {
		if r.ticks.steal == 2 || (i > 0 && r.wall <= kept[i-1].wall) {
			t.Fatalf("kept rounds %v: want the 20 least stolen in their original order", kept)
		}
	}
}

func TestLeastStolenRanksByShareNotTicks(t *testing.T) {
	rounds := make([]roundRec, 30)
	for i := range rounds {
		rounds[i].ticks = hostTicks{total: 20, steal: 1} // 5%
		if i%3 == 0 {
			rounds[i].ticks = hostTicks{total: 200, steal: 10} // a slow round, also 5%
		}
		if i < 2 {
			rounds[i].ticks = hostTicks{total: 20, steal: 4} // 20%
		}
	}
	kept, dropped := leastStolen(rounds)
	if len(dropped) != 10 || dropped[0].ticks.steal != 4 || dropped[1].ticks.steal != 4 {
		t.Fatalf("dropped %v: want the two 20%% rounds first", dropped)
	}
	slow := 0
	for _, r := range kept {
		if r.ticks.total == 200 {
			slow++
		}
	}
	// Ranked by stolen ticks, the nine slow rounds would all go first.
	if slow == 0 {
		t.Fatalf("every slow round dropped: %v", kept)
	}
}

func TestLeastStolenKeepsRoundsWithoutSteal(t *testing.T) {
	rounds := make([]roundRec, 30)
	for i := range rounds {
		rounds[i].wall = float64(i)
		rounds[i].ticks = hostTicks{total: 20}
	}
	if kept, dropped := leastStolen(rounds); len(kept) != 30 || dropped != nil {
		t.Fatalf("calm pass: kept %d, dropped %d; want all kept", len(kept), len(dropped))
	}
	rounds[7].ticks.steal = 3
	kept, dropped := leastStolen(rounds)
	if len(kept) != 29 || len(dropped) != 1 || dropped[0].wall != 7 {
		t.Fatalf("one stolen round: kept %d, dropped %v; want only round 7 dropped", len(kept), dropped)
	}
}
