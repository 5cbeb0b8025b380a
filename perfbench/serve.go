package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"emuchick/internal/jobserver"
	"emuchick/internal/storefs"
)

// liveServer is emuserved in process: a jobserver.Server behind its HTTP
// handler on a loopback listener.
type liveServer struct {
	srv     *jobserver.Server
	handler http.Handler
	http    *httptest.Server
	client  *http.Client
}

// serverWorkers is the job server's worker count: with at most two client
// goroutines it keeps the load within two host cores.
const serverWorkers = 2

func boot(dir string, fsys storefs.FS) (*liveServer, error) {
	s, err := jobserver.New(jobserver.Config{DataDir: dir, Workers: serverWorkers, FS: fsys})
	if err != nil {
		return nil, err
	}
	handler := s.Handler()
	h := httptest.NewServer(handler)
	c := h.Client()
	c.Timeout = 2 * time.Minute
	return &liveServer{srv: s, handler: handler, http: h, client: c}, nil
}

func (l *liveServer) close() {
	l.http.Close()
	l.srv.Close()
}

// call performs one HTTP request and returns the body of a 2xx reply.
func (l *liveServer) call(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, l.http.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}

func terminal(s jobserver.State) bool {
	return s == jobserver.StateDone || s == jobserver.StateFailed || s == jobserver.StateCanceled
}

// callTimes are the client-side durations of one job's HTTP calls.
type callTimes struct {
	submitMs, resultMs float64
	waitMs             []float64
}

// runJob submits one spec and returns the result bytes once the job is
// done: POST /v1/jobs, then /wait until terminal (cold jobs only), then
// /result.
func (l *liveServer) runJob(specJSON []byte, tr *tracer, root int) (jobserver.Job, []byte, callTimes, error) {
	var ct callTimes
	var job jobserver.Job
	var sp int
	timed := func(name string, dst *float64, method, path string, body []byte) ([]byte, error) {
		sp = tr.begin(name, job.ID, root)
		start := time.Now()
		data, err := l.call(method, path, body)
		*dst = msSince(start)
		tr.end(sp)
		return data, err
	}
	data, err := timed("jobserver.submit", &ct.submitMs, http.MethodPost, "/v1/jobs", specJSON)
	if err != nil {
		return job, nil, ct, err
	}
	if err := json.Unmarshal(data, &job); err != nil {
		return job, nil, ct, fmt.Errorf("submit reply: %w", err)
	}
	// The job id arrives with the submit reply: label the request's spans
	// with it, so the server's file-system calls for this job find them.
	tr.setReq(root, job.ID)
	tr.setReq(sp, job.ID)
	for !terminal(job.State) {
		var ms float64
		data, err := timed("jobserver.wait", &ms, http.MethodGet, "/v1/jobs/"+job.ID+"/wait?timeout=60s", nil)
		ct.waitMs = append(ct.waitMs, ms)
		if err != nil {
			return job, nil, ct, err
		}
		if err := json.Unmarshal(data, &job); err != nil {
			return job, nil, ct, fmt.Errorf("wait reply: %w", err)
		}
	}
	if job.State != jobserver.StateDone {
		return job, nil, ct, fmt.Errorf("job %s %s: %s", job.ID, job.State, job.Error)
	}
	body, err := timed("jobserver.result", &ct.resultMs, http.MethodGet, "/v1/jobs/"+job.ID+"/result", nil)
	return job, body, ct, err
}

// op is one step of a client's closed-loop schedule: submit cell (cold) or
// resubmit the pick-th (mod count) spec this client already completed.
type op struct {
	hit  bool
	cell int
	pick uint64
}

// buildSchedule lays out one client's round: each of its cells once as a
// cold submit, in seeded order, every (1+hitsPerCold)-th op starting with
// the first, and a resubmit of a seeded pick among the specs the client has
// completed everywhere else. Fixed cold positions keep how the two
// clients' cold jobs overlap the same at every seed.
func buildSchedule(w *workloadDef, client int, r *rng) []op {
	var colds []int
	for i, c := range w.cells {
		if c.served() && c.client == client {
			colds = append(colds, i)
		}
	}
	order := r.perm(len(colds))
	sched := make([]op, len(colds)*(1+w.hitsPerCold))
	for i := range sched {
		if i%(1+w.hitsPerCold) == 0 {
			sched[i] = op{cell: colds[order[i/(1+w.hitsPerCold)]]}
		} else {
			sched[i] = op{hit: true, pick: r.next()}
		}
	}
	return sched
}

// roundResult is what one served round measured.
type roundResult struct {
	hitMs, coldMs, diskHitMs []float64
	coldCells                []int // the cell of each coldMs sample
	loopNs                   int64
	loopOps                  int
	totalNs                  int64 // the whole round, restart phase included
	restartNs                int64
	records                  int
	stats                    jobserver.Stats
	attempted, failed        int
	errs                     []error

	// Traced rounds only: per-call times and which jobs were hits or cold.
	calls             []callTimes
	hitJobs, coldJobs []string
	keyJob            map[string]string // result fingerprint -> job id that produced it
}

func (r *roundResult) fail(err error) {
	r.failed++
	r.errs = append(r.errs, err)
}

// serveRound runs one round on dir, a fresh data directory: the clients'
// closed loops, then a restart on the same directory and one resubmit of
// every distinct spec (disk hits), checking every result payload. The
// directory is left in place (see dirs).
func serveRound(w *workloadDef, scheds [][]op, specs [][]byte, exp *expectations,
	dir string, fsys storefs.FS, tr *tracer) (*roundResult, error) {
	roundStart := time.Now()
	l, err := boot(dir, fsys)
	if err != nil {
		return nil, err
	}
	res := &roundResult{keyJob: map[string]string{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := range scheds {
		wg.Add(1)
		go func(sched []op) {
			defer wg.Done()
			var done []int
			for _, o := range sched {
				cellIdx := o.cell
				if o.hit {
					cellIdx = done[o.pick%uint64(len(done))]
				}
				root := tr.begin("client.job", "", -1)
				t0 := time.Now()
				job, body, ct, err := l.runJob(specs[cellIdx], tr, root)
				ms := msSince(t0)
				tr.end(root)
				if err == nil {
					err = exp.checkServed(cellIdx, body)
				}
				mu.Lock()
				res.attempted++
				if err != nil {
					res.fail(err)
				} else if o.hit {
					res.hitMs = append(res.hitMs, ms)
				} else {
					res.coldMs = append(res.coldMs, ms)
					res.coldCells = append(res.coldCells, cellIdx)
				}
				if tr != nil {
					res.calls = append(res.calls, ct)
					if o.hit {
						res.hitJobs = append(res.hitJobs, job.ID)
					} else {
						res.coldJobs = append(res.coldJobs, job.ID)
						res.keyJob[job.Key] = job.ID
					}
				}
				mu.Unlock()
				if !o.hit {
					done = append(done, cellIdx)
				}
			}
		}(scheds[c])
	}
	wg.Wait()
	res.loopNs = time.Since(start).Nanoseconds()
	res.loopOps = res.attempted
	res.stats = l.srv.Stats()

	// Restart: the previous server is closed and a new one opens the same
	// directory; restart time runs until the new handler is serving.
	l.close()
	t0 := time.Now()
	l, err = boot(dir, fsys)
	if err != nil {
		return nil, err
	}
	res.restartNs = time.Since(t0).Nanoseconds()
	defer l.close()
	res.records = l.srv.Stats().Submitted
	for i, c := range w.cells {
		if !c.served() {
			continue
		}
		root := tr.begin("client.job", "", -1)
		t0 := time.Now()
		_, body, _, err := l.runJob(specs[i], tr, root)
		ms := msSince(t0)
		tr.end(root)
		if err == nil {
			err = exp.checkServed(i, body)
		}
		res.attempted++
		if err != nil {
			res.fail(err)
			continue
		}
		res.diskHitMs = append(res.diskHitMs, ms)
	}
	res.stats.Shed += l.srv.Stats().Shed
	res.totalNs = time.Since(roundStart).Nanoseconds()
	return res, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
