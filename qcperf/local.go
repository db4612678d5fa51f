package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// startMiningChild starts the mining process over the run's graph and
// waits for it to report ready. The returned duration runs from just
// before the process starts until it can take its first job.
func startMiningChild(env *runEnv) (*exec.Cmd, time.Duration, error) {
	cmd := exec.Command(filepath.Join(env.bin, "qcperf"), "mine-child",
		"-workload", env.w.name, "-graph", env.chk.g.path,
		"-seconds", strconv.FormatFloat(env.seconds, 'f', -1, 64),
		"-trace="+strconv.FormatBool(env.trace), "-out", env.work)
	cmd.Env = append(os.Environ(), "TMPDIR="+env.work)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	setup := time.Since(start)
	if err != nil || line != "ready\n" {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, 0, fmt.Errorf("mining process did not become ready (%q, %v)", line, err)
	}
	return cmd, setup, nil
}

// runLocal runs hardcore or sparse-tcp: jobs on a miner.Session in a
// child process, timed there; answers and counters checked here.
func runLocal(env *runEnv) (*runResult, error) {
	cmd, setup, err := startMiningChild(env)
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

	res := &runResult{attempted: len(out.Jobs)}
	var lat []float64
	for _, j := range out.Jobs {
		if j.Err != "" {
			res.failed++
			continue
		}
		lat = append(lat, j.Ms)
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("every timed job failed, first: %s", out.Jobs[0].Err)
	}
	printJobs(lat)
	res.e2e = map[string]float64{
		"setup_s":        setup.Seconds(),
		"job_p50_ms":     median(lat),
		"job_tail_ms":    nearestRank(lat, tailPercentile),
		"jobs_per_s":     float64(len(lat)) / out.TimedWallS,
		"cpu_ms_per_job": out.CPUMs / float64(len(lat)),
		"peak_rss_mb":    out.PeakRSSMB,
	}
	checkChildJobs(env, out)
	if env.trace {
		res.layers = childLayers(out)
		if err := writeRunTrace(env, out); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// printJobs lists the timed jobs' latencies in run order.
func printJobs(lat []float64) {
	fmt.Print("qcperf: job ms:")
	for _, x := range lat {
		fmt.Printf(" %.0f", x)
	}
	fmt.Println()
}

func readChildOut(env *runEnv) (*childOut, error) {
	data, err := os.ReadFile(filepath.Join(env.work, "child.json"))
	if err != nil {
		return nil, err
	}
	out := &childOut{}
	if err := json.Unmarshal(data, out); err != nil {
		return nil, fmt.Errorf("mining process report: %w", err)
	}
	return out, nil
}

// writeRunTrace writes the traced run's Chrome trace: the engine's
// spans of the first traced job, the mining process's spans, and one
// track per HTTP client.
func writeRunTrace(env *runEnv, out *childOut, clients ...[]benchSpan) error {
	engine, err := os.ReadFile(filepath.Join(env.work, engineTraceFile))
	if err != nil {
		return err
	}
	names := []string{"mining process"}
	tracks := [][]benchSpan{out.Spans}
	for i, spans := range clients {
		names = append(names, fmt.Sprintf("HTTP client %d", i+1))
		tracks = append(tracks, spans)
	}
	if err := os.MkdirAll(env.results, 0o755); err != nil {
		return err
	}
	return writeMergedTrace(filepath.Join(env.results, env.w.name+"-trace.json"), engine, names, tracks)
}

// tailPercentile is the percentile job_tail_ms reports (nearest rank).
const tailPercentile = 0.8

// checkChildJobs checks the mining process's answers and per-job
// counters: every distinct answer in full, one answer per query
// across all its jobs, the task and spill balances, and, in the traced
// run, the serial answer against the parallel one.
func checkChildJobs(env *runEnv, out *childOut) {
	c := env.chk
	for _, a := range out.Answers {
		q := env.w.queries[a.Query]
		c.checkAnswer(fmt.Sprintf("%s %s", env.w.name, q), a.Sets, q.Gamma, q.MinSize)
	}
	first := map[int]string{}
	all := append([]jobRec{out.Warmup}, out.Jobs...)
	if env.trace {
		all = append(append(all, out.FirstTraced), out.Traced...)
	}
	for _, j := range all {
		if j.Err != "" || j.Query < 0 {
			continue
		}
		if h, ok := first[j.Query]; ok {
			c.expect(j.Hash == h, "%s: repeated job of query %d returned answer %s, first returned %s", env.w.name, j.Query, j.Hash, h)
		} else {
			first[j.Query] = j.Hash
		}
		c.expect(j.Finished == j.Spawned+j.Subtasks, "%s: TasksFinished %d != TasksSpawned %d + SubtasksAdded %d", env.w.name, j.Finished, j.Spawned, j.Subtasks)
		c.expect(j.SpillRead == j.SpillWritten, "%s: SpillBytesRead %d != SpillBytesWritten %d", env.w.name, j.SpillRead, j.SpillWritten)
	}
	if env.trace {
		c.expect(out.SerialHash == first[0], "%s: serial quasiclique.MineGraph answer %s != parallel answer %s", env.w.name, out.SerialHash, first[0])
	}
}

// childLayers derives the per-layer metrics from the mining process's
// report. Time and work figures are means over the timed untraced
// jobs; transport and cache totals come from the first job of the
// traced session, the only job that session ran when it reported them.
func childLayers(out *childOut) map[string]float64 {
	var ok []jobRec
	for _, j := range out.Jobs {
		if j.Err == "" {
			ok = append(ok, j)
		}
	}
	avg := func(f func(j jobRec) float64) float64 {
		xs := make([]float64, len(ok))
		for i, j := range ok {
			xs[i] = f(j)
		}
		return mean(xs)
	}
	ft := out.FirstTraced
	l := map[string]float64{
		"graph.load_ms":            out.LoadMs,
		"graph.edges_per_s":        float64(out.Edges) / (out.LoadMs / 1e3),
		"miner.engine_ms":          avg(func(j jobRec) float64 { return j.EngineMs }),
		"miner.finalize_ms":        avg(func(j jobRec) float64 { return j.Ms - j.EngineMs }),
		"miner.mining_ms":          avg(func(j jobRec) float64 { return j.MiningMs }),
		"miner.materialize_ms":     avg(func(j jobRec) float64 { return j.MaterMs }),
		"miner.top_root_share":     avg(func(j jobRec) float64 { return j.TopRootShare }),
		"gthinker.busy_frac":       avg(func(j jobRec) float64 { return j.BusyFrac }),
		"gthinker.busy_imbalance":  avg(func(j jobRec) float64 { return j.Imbalance }),
		"gthinker.tasks":           avg(func(j jobRec) float64 { return float64(j.Spawned) }),
		"gthinker.subtasks":        avg(func(j jobRec) float64 { return float64(j.Subtasks) }),
		"gthinker.spill_mb":        avg(func(j jobRec) float64 { return float64(j.SpillWritten) / (1 << 20) }),
		"gthinker.refills":         avg(func(j jobRec) float64 { return float64(j.Refills) }),
		"gthinker.peak_spill_mb":   avg(func(j jobRec) float64 { return float64(j.PeakSpill) / (1 << 20) }),
		"gthinker.peak_heap_mb":    avg(func(j jobRec) float64 { return j.PeakHeapMB }),
		"gthinker.remote_fetches":  float64(ft.RemoteFetches),
		"gthinker.fetch_rpcs":      float64(ft.FetchRPCs),
		"gthinker.ids_per_rpc":     ratio(float64(ft.RemoteFetches), float64(ft.FetchRPCs)),
		"gthinker.wire_mb":         float64(ft.WireBytes) / (1 << 20),
		"gthinker.cache_hit_ratio": ratio(float64(ft.CacheHits), float64(ft.CacheHits+ft.CacheMisses)),
		"gthinker.steals":          float64(ft.Steals),
		"quasiclique.nodes":        float64(out.SerialNodes),
		"quasiclique.ns_per_node":  ratio(out.SerialMs*1e6, float64(out.SerialNodes)),
	}
	for metric, kind := range map[string]string{
		"gthinker.spawn_ms": "spawn", "gthinker.fetch_ms": "fetch",
		"gthinker.spill_ms": "spill", "gthinker.refill_ms": "refill",
	} {
		l[metric] = out.SpanMs[kind]
		if out.TraceDropped > 0 {
			l[metric] = spanUnavailable
		}
	}
	var untraced, traced []float64
	for _, j := range ok {
		untraced = append(untraced, j.Ms)
	}
	for _, j := range out.Traced {
		if j.Err == "" {
			traced = append(traced, j.Ms)
		}
	}
	l["obs.trace_overhead_pct"] = (median(traced)/median(untraced) - 1) * 100
	for _, d := range perLayer {
		if _, set := l[d.name]; !set {
			l[d.name] = 0 // serve.*: no HTTP layer on this workload
		}
	}
	return l
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
