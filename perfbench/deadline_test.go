package main

import (
	"os"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the calibration child,
// which the benchmark runs as its own executable with -calibrate.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-calibrate" {
		runCalibrate()
		return
	}
	os.Exit(m.Run())
}

func TestPassDeadlineLeavesRoundIncomplete(t *testing.T) {
	b := &bench{deadline: time.Now().Add(-time.Second)}
	jobs := []jobDef{{kind: "a"}, {kind: "b"}}

	r := (&inproc{b: b}).runRound(jobs, t.TempDir())
	if r.complete || len(r.jobs) != 0 {
		t.Fatalf("in-process round past the deadline: complete=%v with %d jobs", r.complete, len(r.jobs))
	}
	r = newServeClient(b, "http://127.0.0.1:0").runRound(jobs, 0)
	if r.complete || len(r.jobs) != 0 {
		t.Fatalf("served round past the deadline: complete=%v with %d jobs", r.complete, len(r.jobs))
	}
	if s := summarize([]roundRec{r}); s.rounds != 0 || s.attempted != 0 {
		t.Fatalf("incomplete round counted: %+v", s)
	}

	b.deadline = time.Time{}
	if b.pastDeadline() {
		t.Fatal("no deadline outside a pass")
	}
}

func TestCutShortRoundCountsItsFailedJobs(t *testing.T) {
	b := &bench{calEvery: 10, passCap: 60}
	rounds := b.calibrated(3, func(i int) roundRec {
		if i == 0 {
			return roundRec{complete: true, wall: 1, jobs: []jobRec{{kind: "a", lat: 1, ok: true}}}
		}
		// The deadline passed while this round's one job hung and failed.
		return roundRec{jobs: []jobRec{{kind: "a"}}}
	})
	if len(rounds) != 1 || !rounds[0].complete {
		t.Fatalf("pass returned %d rounds, want the one complete round", len(rounds))
	}
	attempted, failed := b.totals(summarize(rounds))
	if attempted != 2 || failed != 1 {
		t.Fatalf("attempted %d failed %d, want 2 and 1", attempted, failed)
	}
}
