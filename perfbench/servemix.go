package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"pargraph/internal/diskcache"
	"pargraph/internal/serve"
)

// pollInterval is the fixed status-poll period. Latency is taken from
// the server's own enqueued/finished timestamps, so the interval only
// delays the client's next submission (throughput), never a latency.
const pollInterval = 5 * time.Millisecond

// serveClients is the closed-loop client count: two against a
// -concurrency 1 server keeps a one-job queue in front of the worker.
const serveClients = 2

// coldKinds are the serve-mix cold jobs of every round.
var coldKinds = [][2]string{
	{"listrank", "mta"}, {"listrank", "smp"},
	{"concomp", "mta"}, {"concomp", "smp"},
	{"coloring", "mta"}, {"coloring", "smp"},
}

// serveRound is round r of serve-mix: three passes over the paper round
// as warm repeats, with one cold job after every fourth warm job, each
// cold job on a seed no other job of the run uses.
func serveRound(paper []jobDef, seed uint64, r int) []jobDef {
	var jobs []jobDef
	for k, ck := range coldKinds {
		for i := 0; i < 4; i++ {
			w := paper[(4*k+i)%len(paper)]
			w.class = "warm"
			jobs = append(jobs, w)
		}
		c := kernelJob(ck[0], ck[1], seed+1_000_003*uint64(r*len(coldKinds)+k+1))
		c.kind, c.class, c.fresh = "cold-"+c.kind, "cold", true
		jobs = append(jobs, c)
	}
	return jobs
}

// jobView is the part of GET /jobs/{id} the client reads.
type jobView struct {
	ID          string     `json:"id"`
	State       string     `json:"state"`
	Error       string     `json:"error"`
	Enqueued    time.Time  `json:"enqueued"`
	Finished    *time.Time `json:"finished"`
	WaitSeconds float64    `json:"wait_seconds"`
	RunSeconds  float64    `json:"run_seconds"`
	Artifacts   []struct {
		Name string `json:"name"`
		Href string `json:"href"`
	} `json:"artifacts"`
	Cells *struct {
		Computed int64 `json:"computed"`
		Cached   int64 `json:"cached"`
	} `json:"cells"`
	Cache *struct {
		Input  diskcache.Stats `json:"input"`
		Result diskcache.Stats `json:"result"`
	} `json:"cache"`
}

// serveClient drives the HTTP job API.
type serveClient struct {
	b    *bench
	base string
	hc   *http.Client
	rec  *recorder
	acc  *layerAcc
}

func newServeClient(b *bench, base string) *serveClient {
	return &serveClient{b: b, base: base, hc: &http.Client{
		Timeout:   120 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: serveClients},
	}}
}

// call makes one request and returns the body of a 2xx response.
func (c *serveClient) call(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		if c.acc != nil {
			c.acc.httpError()
		}
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(data)))
	}
	return data, nil
}

// timedCall is call inside a span, returning the call's wall seconds.
func (c *serveClient) timedCall(name string, job, parent int, method, path string, body []byte) ([]byte, float64, error) {
	sp := c.rec.begin(name, job, parent)
	t0 := time.Now()
	data, err := c.call(method, path, body)
	d := time.Since(t0).Seconds()
	c.rec.end(sp)
	return data, d, err
}

// runJob submits one job, polls it to completion, fetches every
// artifact and checks them. Latency is the submit round trip plus the
// server's enqueued-to-finished time plus the artifact fetches.
func (c *serveClient) runJob(j jobDef, cnt *counts, mu *sync.Mutex) jobRec {
	jr := jobRec{kind: j.kind, class: j.class}
	id := c.b.nextJob()
	top := c.rec.begin("bench.job", id, -1)
	defer c.rec.end(top)
	fail := func(err error) jobRec {
		c.b.fail(fmt.Errorf("%s: %w", j.kind, err))
		return jr
	}

	data, submit, err := c.timedCall("serve.submit", id, top, "POST", "/jobs", []byte(j.text))
	if err != nil {
		return fail(err)
	}
	var sub struct{ ID string }
	if err := json.Unmarshal(data, &sub); err != nil {
		return fail(err)
	}
	var v jobView
	var polls int
	var statusS []float64
	for {
		time.Sleep(pollInterval)
		data, d, err := c.timedCall("serve.status", id, top, "GET", "/jobs/"+sub.ID, nil)
		polls++
		statusS = append(statusS, d)
		if err != nil {
			return fail(err)
		}
		if err := json.Unmarshal(data, &v); err != nil {
			return fail(err)
		}
		if v.State == "done" || v.State == "failed" {
			break
		}
	}
	if v.State != "done" || v.Finished == nil {
		return fail(fmt.Errorf("job %s %s: %s", sub.ID, v.State, v.Error))
	}
	var arts []artifact
	fetch := 0.0
	for _, a := range v.Artifacts {
		data, d, err := c.timedCall("serve.artifact", id, top, "GET", a.Href, nil)
		if err != nil {
			return fail(err)
		}
		fetch += d
		arts = append(arts, artifact{a.Name, data})
	}
	if err := c.b.gate.check(j, arts); err != nil {
		return fail(err)
	}
	jr.lat = submit + v.Finished.Sub(v.Enqueued).Seconds() + fetch
	jr.ok = true

	mu.Lock()
	if v.Cache != nil {
		cnt.addRun(v.Cache.Input, v.Cache.Result, nil)
	}
	if v.Cells != nil {
		cnt.CellsComputed += v.Cells.Computed
		cnt.CellsCached += v.Cells.Cached
	}
	mu.Unlock()
	if c.acc != nil {
		started := v.Enqueued.Add(time.Duration(v.WaitSeconds * float64(time.Second)))
		c.rec.add("jobqueue.wait", id, top, started, started.Sub(v.Enqueued))
		c.rec.add("jobqueue.run", id, top, *v.Finished, v.Finished.Sub(started))
		c.acc.addServed(j.class, v.WaitSeconds, v.RunSeconds, submit, statusS, fetch, polls)
		if v.Cache != nil {
			c.acc.addBytes(v.Cache.Input, v.Cache.Result)
		}
	}
	return jr
}

// runRound runs the jobs on serveClients closed-loop clients, each
// taking the next job when its previous one is done; past the pass
// deadline they take no more, and the round is left incomplete. pid is
// the server process whose CPU the round is charged (0 = none).
func (c *serveClient) runRound(jobs []jobDef, pid int) roundRec {
	r := roundRec{complete: true, jobs: make([]jobRec, len(jobs))}
	var mu sync.Mutex
	next := 0
	c0 := serverCPU(pid)
	t0 := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < serveClients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next < len(jobs) && c.b.pastDeadline() {
					r.complete = false
					r.jobs = r.jobs[:next] // the attempted jobs
					next = len(jobs)
				}
				i := next
				next++
				mu.Unlock()
				if i >= len(jobs) {
					return
				}
				r.jobs[i] = c.runJob(jobs[i], &r.counts, &mu)
			}
		}()
	}
	wg.Wait()
	r.wall, r.cpu = time.Since(t0).Seconds(), serverCPU(pid)-c0
	return r
}

func serverCPU(pid int) float64 {
	if pid == 0 {
		return 0
	}
	s, _ := pidCPU(pid)
	return s
}

// server is a cmd/serve child process.
type server struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{} // closed once the process has been waited for
}

// startServer execs the serve binary on dir at its default concurrency
// and waits until /healthz answers.
func (b *bench) startServer(dir string) (*server, error) {
	logPath := dir + ".log"
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(b.serveBin, "-addr", "127.0.0.1:0", "-cache-dir", dir)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", b.serveBin, err)
	}
	exited := make(chan struct{})
	s := &server{cmd: cmd, exited: exited}
	go func() { cmd.Wait(); close(exited) }()
	stopped := func() error {
		select {
		case <-exited:
			return fmt.Errorf("serve exited during start-up; log in %s", logPath)
		default:
			return nil
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for s.base == "" {
		if err := stopped(); err != nil {
			return nil, err
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("serve did not announce its address")
		}
		data, _ := os.ReadFile(logPath)
		if _, rest, ok := strings.Cut(string(data), "listening on "); ok {
			if addr, _, ok := strings.Cut(rest, "\n"); ok {
				s.base = addr
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	hc := &http.Client{Timeout: time.Second}
	for {
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if err := stopped(); err != nil {
			return nil, err
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("serve never became healthy")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return s, nil
}

// stop drains the server with SIGTERM and waits for it to exit,
// killing it if the drain takes longer than 30 s.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(30 * time.Second):
		s.kill()
	}
}

func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.exited
}

// runServeMix runs the serve-mix workload. Set-up is exec to healthy
// plus the cache fill (one paper round over HTTP), repeated setupReps
// times on fresh directories; the last server serves the timed rounds.
func (b *bench) runServeMix() error {
	if b.serveBin == "" {
		return fmt.Errorf("serve-mix needs -serve, the cmd/serve binary")
	}
	paper, err := paperRound(b.root, b.seed)
	if err != nil {
		return err
	}
	var srv *server
	var dir string
	undo := func() {
		srv.stop()
		os.RemoveAll(dir)
	}
	err = b.setUp(undo, func() (roundRec, error) {
		dir = b.tempDir()
		s, err := b.startServer(dir)
		if err != nil {
			return roundRec{}, err
		}
		srv = s
		return newServeClient(b, srv.base).runRound(paper, 0), nil
	})
	if err != nil {
		if srv != nil {
			srv.stop()
		}
		return err
	}
	defer srv.stop()
	pid := srv.cmd.Process.Pid
	b.workPID = pid

	round := 0
	pass := func(c *serveClient) []roundRec {
		return b.calibrated(b.nRounds, func(int) roundRec {
			runtime.GC()
			round++
			return c.runRound(serveRound(paper, b.seed, round-1), pid)
		})
	}
	if err := b.measure(func() []roundRec { return pass(newServeClient(b, srv.base)) }); err != nil {
		return err
	}
	if !b.trace {
		return nil
	}
	acc := newLayerAcc()
	c := newServeClient(b, srv.base)
	c.rec, c.acc = b.rec, acc
	b.tracedPass(acc, func() []roundRec { return pass(c) })
	acc.serveRounds += b.nRounds
	b.acc = acc
	// The runner, harness, spec and manifest layers run inside the
	// server, out of the benchmark's reach: replay one paper round
	// in-process on the server's (now idle) cache directory.
	b.workPID = 0
	x := &inproc{b: b, rec: b.rec, acc: acc}
	b.countExtra([]roundRec{x.runRound(paper, dir)})
	acc.inRounds++
	return nil
}

// serveProbe measures the jobqueue and serve layers for the in-process
// workloads: one serve-mix round through an in-process server on the
// filled cache directory dir.
func (b *bench) serveProbe(dir string, acc *layerAcc) error {
	paper, err := paperRound(b.root, b.seed)
	if err != nil {
		return err
	}
	srv := serve.New(serve.Config{CacheDir: dir})
	ts := httptest.NewServer(srv.Handler())
	c := newServeClient(b, ts.URL)
	c.rec, c.acc = b.rec, acc
	b.countExtra([]roundRec{c.runRound(serveRound(paper, b.seed, 0), 0)})
	acc.serveRounds++
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return srv.Drain(ctx)
}
