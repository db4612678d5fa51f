package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The serve-mix query plan. qcserved runs with a 4-entry result
// cache, and each half-round mines the eight cheap queries, then four
// of the eight expensive ones, then repeats those four. The repeats
// find the four expensive answers at the head of the cache; the next
// half-round's queries find only evicted entries. So a quarter of all
// queries are cache hits, and every round does the same work. Indices
// are into the workload's pass: γ-major over serveGammas ×
// serveMinSizes.
var (
	serveCheap     = []int{6, 7, 10, 11, 12, 13, 14, 15}  // γ=0.9,0.92 at τ 17,19; γ=0.95 at all τ
	serveExpensive = [2][]int{{0, 2, 4, 9}, {1, 3, 5, 8}} // γ=0.88 at all τ; γ=0.9,0.92 at τ 13,15
)

const (
	serveClients   = 2
	serveCacheSize = 4
	pollInterval   = 2 * time.Millisecond
)

// serveJob is one query as a client saw it.
type serveJob struct {
	query     int
	latMs     float64
	cached    bool
	cliques   int
	wallMs    float64
	resultsMs float64
	bytes     int
	sets      [][]uint32
	hash      string
	err       string
}

// jobStatus mirrors the fields of qcserved's job status the client
// reads.
type jobStatus struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	Cached  bool   `json:"cached"`
	Cliques int    `json:"cliques"`
	WallMS  int64  `json:"wall_ms"`
	Error   string `json:"error"`
}

// server is a running qcserved child.
type server struct {
	cmd     *exec.Cmd
	base    string
	logDone chan struct{}
}

// startServer starts qcserved over the run's graph and returns once
// /healthz answers, with the time from process start to then.
func startServer(env *runEnv, client *http.Client) (*server, time.Duration, error) {
	cmd := exec.Command(filepath.Join(env.bin, "qcserved"), "-graph", env.chk.g.path,
		"-addr", "127.0.0.1:0", "-machines", strconv.Itoa(env.w.engine.Machines),
		"-threads", strconv.Itoa(env.w.engine.WorkersPerMachine), "-cache", strconv.Itoa(serveCacheSize))
	cmd.Env = append(os.Environ(), "TMPDIR="+env.work)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	s := &server{cmd: cmd, logDone: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.logDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "serving on http://"); i >= 0 {
				addr <- line[i+len("serving on "):]
				continue
			}
			fmt.Fprintln(os.Stderr, line)
		}
	}()
	select {
	case s.base = <-addr:
	case <-s.logDone:
		s.stop()
		return nil, 0, fmt.Errorf("qcserved exited before serving")
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, 0, fmt.Errorf("qcserved did not start serving within 60 s")
	}
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		if time.Since(start) > 60*time.Second {
			s.stop()
			return nil, 0, fmt.Errorf("qcserved /healthz did not answer: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop interrupts qcserved, waits for it to exit (killing it after
// 15 s), and returns its exit error.
func (s *server) stop() error {
	s.cmd.Process.Signal(os.Interrupt)
	select {
	case <-s.logDone:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.logDone
	}
	return s.cmd.Wait()
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(b))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// runQuery submits q, polls its status until it ends, and downloads
// its NDJSON results. The latency runs from the POST to the last
// result byte read; parsing the results is not in it. A non-nil
// submitted is closed once the POST has been answered.
func runQuery(client *http.Client, base string, qi int, q query, spans *spanLog, submitted chan struct{}) serveJob {
	job := serveJob{query: qi}
	args := map[string]string{"query": q.String()}
	body := fmt.Sprintf(`{"gamma":%s,"min_size":%d}`, q.Gamma, q.MinSize)
	start := time.Now()
	resp, err := client.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if submitted != nil {
		close(submitted)
	}
	if err != nil {
		job.err = err.Error()
		return job
	}
	var st jobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	spans.record("http POST /v1/jobs", start, args)
	if err != nil || (resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK) {
		job.err = fmt.Sprintf("submit: %s %v %s", resp.Status, err, st.Error)
		return job
	}
	job.cached = st.Cached
	pollStart := time.Now()
	for st.State == "queued" || st.State == "running" {
		time.Sleep(pollInterval)
		if err := getJSON(client, base+"/v1/jobs/"+st.ID, &st); err != nil {
			job.err = err.Error()
			return job
		}
	}
	if !job.cached {
		spans.record("http poll /v1/jobs/{id}", pollStart, args)
	}
	if st.State != "done" {
		job.err = fmt.Sprintf("job %s ended %s: %s", st.ID, st.State, st.Error)
		return job
	}
	job.cliques, job.wallMs = st.Cliques, float64(st.WallMS)

	resStart := time.Now()
	resp, err = client.Get(base + "/v1/jobs/" + st.ID + "/results")
	if err != nil {
		job.err = err.Error()
		return job
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	spans.record("http GET /v1/jobs/{id}/results", resStart, args)
	if err != nil || resp.StatusCode != http.StatusOK {
		job.err = fmt.Sprintf("results: %s %v", resp.Status, err)
		return job
	}
	job.latMs = ms(end.Sub(start))
	job.resultsMs = ms(end.Sub(resStart))
	job.bytes = len(data)
	for _, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var set []uint32
		if err := json.Unmarshal(line, &set); err != nil {
			job.err = fmt.Sprintf("results line %q: %v", line, err)
			return job
		}
		job.sets = append(job.sets, set)
	}
	job.hash = answerHash(canonical(job.sets))
	return job
}

// serveMix runs the query plan against one server.
type serveMix struct {
	env    *runEnv
	client *http.Client
	base   string
	spans  [serveClients]spanLog

	mu   sync.Mutex
	jobs []serveJob
}

// phase runs the given queries, in the order given, on the
// closed-loop clients and returns when all have finished. Client c
// starts once client c−1's first submission has been answered, so the
// server queues a phase's first jobs in the same order every time: a
// job's queue wait, part of its latency, then depends on the plan and
// not on which client's request won a race.
func (m *serveMix) phase(qs []int) {
	var next atomic.Int32
	var wg sync.WaitGroup
	submitted := make([]chan struct{}, serveClients)
	for c := range submitted {
		submitted[c] = make(chan struct{})
	}
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if c > 0 {
				<-submitted[c-1]
			}
			first := submitted[c]
			for {
				i := int(next.Add(1)) - 1
				if i >= len(qs) {
					if first != nil { // submitted nothing: release the next client
						close(first)
					}
					return
				}
				job := runQuery(m.client, m.base, qs[i], m.env.w.queries[qs[i]], &m.spans[c], first)
				first = nil
				m.mu.Lock()
				m.jobs = append(m.jobs, job)
				m.mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
}

// runServeMix runs serve-mix: qcserved as a child process and two
// closed-loop HTTP clients in this one.
func runServeMix(env *runEnv) (*runResult, error) {
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	defer client.CloseIdleConnections()
	srv, setup, err := startServer(env, client)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.stop()
		}
	}()
	pid := srv.cmd.Process.Pid
	m := &serveMix{env: env, client: client, base: srv.base}

	w := env.w
	warm := runQuery(client, srv.base, w.indexOf(w.warmup), w.warmup, &m.spans[0], nil)
	if warm.err != "" {
		return nil, fmt.Errorf("warm-up job: %s", warm.err)
	}
	_, rssWarm, err := procMemMB(pid)
	if err != nil {
		return nil, err
	}
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	// Rounds are whole, and their number is the one whose expected
	// time, judged by the first round, is closest to --seconds. A
	// round takes about half of the default 25 s, so a run on a host
	// a little faster or slower still makes the same two rounds
	// rather than flipping between two and three.
	round := func() {
		for _, exp := range serveExpensive {
			m.phase(serveCheap)
			m.phase(exp)
			m.phase(exp)
		}
	}
	start := time.Now()
	round()
	rounds := max(1, int(env.seconds/time.Since(start).Seconds()+0.5))
	for r := 1; r < rounds; r++ {
		round()
	}
	wall := time.Since(start)
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	peak, rssEnd, err := procMemMB(pid)
	if err != nil {
		return nil, err
	}
	counters, err := scrapeMetrics(client, srv.base)
	if err != nil {
		return nil, err
	}
	stopped = true
	if err := srv.stop(); err != nil {
		return nil, fmt.Errorf("qcserved exit: %w", err)
	}

	res := &runResult{attempted: len(m.jobs)}
	var lat, runMs, waitMs, hitMs, resMs, resMB []float64
	for _, j := range m.jobs {
		if j.err != "" {
			res.failed++
			fmt.Fprintln(os.Stderr, "qcperf: job failed:", j.err)
			continue
		}
		lat = append(lat, j.latMs)
		resMs = append(resMs, j.resultsMs)
		resMB = append(resMB, float64(j.bytes)/(1<<20))
		if j.cached {
			hitMs = append(hitMs, j.latMs)
		} else {
			runMs = append(runMs, j.wallMs)
			waitMs = append(waitMs, j.latMs-j.wallMs)
		}
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("every timed job failed")
	}
	printJobs(lat)
	res.e2e = map[string]float64{
		"setup_s":        setup.Seconds(),
		"job_p50_ms":     median(lat),
		"job_tail_ms":    nearestRank(lat, tailPercentile),
		"jobs_per_s":     float64(len(lat)) / wall.Seconds(),
		"cpu_ms_per_job": ms(cpu1-cpu0) / float64(len(lat)),
		"peak_rss_mb":    peak,
	}
	m.check(append([]serveJob{warm}, m.jobs...))

	if env.trace {
		layers, err := m.probeLayers()
		if err != nil {
			return nil, err
		}
		layers["serve.queue_wait_ms"] = median(waitMs)
		layers["serve.run_ms"] = median(runMs)
		layers["serve.hit_ms"] = median(hitMs)
		layers["serve.cache_hit_ratio"] = ratio(counters["qcserved_cache_hits_total"], counters["qcserved_jobs_submitted_total"])
		layers["serve.results_ms"] = median(resMs)
		layers["serve.results_mb"] = mean(resMB)
		layers["serve.rss_growth_mb"] = rssEnd - rssWarm
		res.layers = layers
	}
	return res, nil
}

// scrapeMetrics reads qcserved's /metrics counters.
func scrapeMetrics(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 {
			v, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				out[f[0]] = v
			}
		}
	}
	return out, sc.Err()
}

// check verifies the served answers: NDJSON line counts match the
// status, every job of a query (mined or cached) returns the same
// sets, each query's answer passes the full answer check, and for
// each γ the answer at a larger τsize is the answer at the next
// smaller τsize restricted to sets of at least the larger size.
func (m *serveMix) check(jobs []serveJob) {
	c := m.env.chk
	first := map[int]serveJob{}
	for _, j := range jobs {
		if j.err != "" {
			continue
		}
		q := m.env.w.queries[j.query]
		c.expect(len(j.sets) == j.cliques, "serve-mix %s: %d NDJSON lines, status says %d cliques", q, len(j.sets), j.cliques)
		f, ok := first[j.query]
		if !ok {
			first[j.query] = j
			c.checkAnswer("serve-mix "+q.String(), j.sets, q.Gamma, q.MinSize)
			continue
		}
		c.expect(j.hash == f.hash, "serve-mix %s: answer %s (cached=%v) differs from first answer %s", q, j.hash, j.cached, f.hash)
	}
	for gi := range serveGammas {
		for ti := 1; ti < len(serveMinSizes); ti++ {
			small, okS := first[gi*len(serveMinSizes)+ti-1]
			large, okL := first[gi*len(serveMinSizes)+ti]
			if !okS || !okL {
				continue
			}
			var restricted [][]uint32
			for _, s := range small.sets {
				if len(s) >= serveMinSizes[ti] {
					restricted = append(restricted, s)
				}
			}
			c.expect(answerHash(restricted) == large.hash, "serve-mix γ=%v: τsize=%d answer (%d sets) != τsize=%d answer restricted (%d sets)",
				serveGammas[gi], serveMinSizes[ti], len(large.sets), serveMinSizes[ti-1], len(restricted))
		}
	}
}

// probeLayers reads the miner and engine layers for serve-mix, which
// qcserved's HTTP API does not expose: a mining child process runs
// one pass of the sixteen queries on the same graph and cluster shape
// as qcserved, untraced and then traced, plus the serial probe. It
// also writes the merged trace of the child's and the clients' spans.
func (m *serveMix) probeLayers() (map[string]float64, error) {
	env := m.env
	cmd, _, err := startMiningChild(env)
	if err != nil {
		return nil, err
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("mining process: %w", err)
	}
	out, err := readChildOut(env)
	if err != nil {
		return nil, err
	}
	checkChildJobs(env, out)
	var clientSpans [][]benchSpan
	for i := range m.spans {
		clientSpans = append(clientSpans, m.spans[i].spans)
	}
	if err := writeRunTrace(env, out, clientSpans...); err != nil {
		return nil, err
	}
	return childLayers(out), nil
}
