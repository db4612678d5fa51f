package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/gthinker"
	"gthinkerqc/internal/miner"
	"gthinkerqc/internal/obs"
	"gthinkerqc/internal/quasiclique"
)

// engineTraceFile is where the mining process writes the engine spans
// of its first traced job.
const engineTraceFile = "engine-trace.json"

// jobRec is one Session.Mine call as the mining process saw it.
type jobRec struct {
	Query    int     `json:"query"`
	Ms       float64 `json:"ms"`
	Err      string  `json:"err,omitempty"`
	Hash     string  `json:"hash"`
	Sets     int     `json:"sets"`
	EngineMs float64 `json:"engine_ms"`

	MiningMs     float64 `json:"mining_ms"`
	MaterMs      float64 `json:"materialize_ms"`
	TopRootShare float64 `json:"top_root_share"`
	BusyFrac     float64 `json:"busy_frac"`
	Imbalance    float64 `json:"busy_imbalance"`
	PeakHeapMB   float64 `json:"peak_heap_mb"`

	Spawned       uint64 `json:"tasks"`
	Subtasks      uint64 `json:"subtasks"`
	Finished      uint64 `json:"finished"`
	SpillWritten  int64  `json:"spill_written"`
	SpillRead     int64  `json:"spill_read"`
	PeakSpill     int64  `json:"peak_spill"`
	Refills       int64  `json:"refills"`
	RemoteFetches uint64 `json:"remote_fetches"`
	FetchRPCs     uint64 `json:"fetch_rpcs"`
	WireBytes     uint64 `json:"wire_bytes"`
	CacheHits     uint64 `json:"cache_hits"`
	CacheMisses   uint64 `json:"cache_misses"`
	Steals        uint64 `json:"steals"`
}

// answerRec is one distinct answer a query returned.
type answerRec struct {
	Query int        `json:"query"`
	Hash  string     `json:"hash"`
	Sets  [][]uint32 `json:"sets"`
}

// childOut is what the mining process reports to the benchmark.
type childOut struct {
	LoadMs float64 `json:"load_ms"`
	Edges  int     `json:"edges"`

	Warmup     jobRec      `json:"warmup"`
	Jobs       []jobRec    `json:"jobs"`
	TimedWallS float64     `json:"timed_wall_s"`
	CPUMs      float64     `json:"cpu_ms"`
	PeakRSSMB  float64     `json:"peak_rss_mb"`
	Answers    []answerRec `json:"answers"`

	// Traced run only.
	FirstTraced  jobRec             `json:"first_traced"`
	Traced       []jobRec           `json:"traced"`
	SpanMs       map[string]float64 `json:"span_ms"`
	TraceDropped uint64             `json:"trace_dropped"`
	SerialNodes  int64              `json:"serial_nodes"`
	SerialMs     float64            `json:"serial_ms"`
	SerialHash   string             `json:"serial_hash"`
	Spans        []benchSpan        `json:"spans"`
}

// miningProcess holds the graph and runs jobs. It is a child process
// of the benchmark so that its CPU time and peak memory are the
// program's alone: generation and checking happen in the parent.
type miningProcess struct {
	w       workload
	g       *graph.Graph
	spill   string
	spans   spanLog
	out     childOut
	answers map[string]bool
}

// runMineChild is the "mine-child" subcommand. It prints "ready" on
// standard output once the graph is loaded and the session is built,
// runs the jobs, and writes its report to <out>/child.json (and, when
// traced, the engine's spans to <out>/engine-trace.json).
func runMineChild(args []string) error {
	fs := flag.NewFlagSet("mine-child", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	path := fs.String("graph", "", "text edge list")
	seconds := fs.Float64("seconds", 10, "timed seconds")
	trace := fs.Bool("trace", false, "also run the traced session and the serial probe")
	outDir := fs.String("out", "", "directory for child.json and the trace")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	p := &miningProcess{w: w, spill: filepath.Join(*outDir, "spill"), answers: map[string]bool{}}

	start := time.Now()
	lr, err := graph.LoadEdgeListFile(*path, graph.LoadOptions{})
	if err != nil {
		return err
	}
	p.spans.record("graph.LoadEdgeListFile", start, nil)
	p.g = lr.Graph
	p.out.LoadMs = ms(time.Since(start))
	p.out.Edges = p.g.NumEdges()
	sess := miner.NewSession(p.g, p.engine(false))
	fmt.Println("ready")

	budget := time.Duration(*seconds * float64(time.Second))
	if *trace {
		budget /= 2
	}
	p.out.Warmup, _ = p.mine(sess, w.indexOf(w.warmup), w.warmup)
	if p.out.Warmup.Err != "" {
		sess.Close()
		return fmt.Errorf("warm-up job: %s", p.out.Warmup.Err)
	}
	cpu0 := selfCPU()
	p.out.Jobs, p.out.TimedWallS = p.timedPasses(sess, budget)
	p.out.CPUMs = ms(selfCPU() - cpu0)
	p.out.PeakRSSMB, _, _ = procMemMB(0)
	sess.Close()

	if *trace {
		if err := p.tracedRun(budget, *outDir); err != nil {
			return err
		}
	}
	p.out.Spans = p.spans.spans
	data, err := json.Marshal(&p.out)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(*outDir, "child.json"), data, 0o644)
}

func (p *miningProcess) engine(trace bool) gthinker.Config {
	e := p.w.engine
	e.SpillDir = p.spill
	e.Trace = trace
	return e
}

// timedPasses runs whole passes over the workload's queries until
// budget has elapsed, at least one pass.
func (p *miningProcess) timedPasses(sess *miner.Session, budget time.Duration) ([]jobRec, float64) {
	var jobs []jobRec
	start := time.Now()
	for len(jobs) == 0 || time.Since(start) < budget {
		for i, q := range p.w.queries {
			rec, _ := p.mine(sess, i, q)
			jobs = append(jobs, rec)
		}
	}
	return jobs, time.Since(start).Seconds()
}

// mine runs one job and records its timing, counters and answer.
func (p *miningProcess) mine(sess *miner.Session, qi int, q query) (jobRec, *miner.Result) {
	start := time.Now()
	res, err := sess.Mine(context.Background(), q.config())
	wall := time.Since(start)
	p.spans.record("miner.Session.Mine", start, map[string]string{"query": q.String()})
	rec := jobRec{Query: qi, Ms: ms(wall)}
	if err != nil {
		rec.Err = err.Error()
		return rec, nil
	}
	m := res.Engine
	rec.EngineMs = ms(m.Wall)
	rec.MiningMs = ms(res.Recorder.TotalMining())
	rec.MaterMs = ms(res.Recorder.TotalMaterialize())
	if top := res.Recorder.TopK(1); len(top) == 1 && rec.MiningMs > 0 {
		rec.TopRootShare = ms(top[0].Mining) / rec.MiningMs
	}
	if len(m.WorkerBusy) > 0 && m.Wall > 0 {
		rec.BusyFrac = float64(m.TotalBusy()) / (float64(len(m.WorkerBusy)) * float64(m.Wall))
	}
	rec.Imbalance = m.BusyImbalance()
	rec.PeakHeapMB = float64(m.PeakHeapAlloc) / (1 << 20)
	rec.Spawned, rec.Subtasks, rec.Finished = m.TasksSpawned, m.SubtasksAdded, m.TasksFinished
	rec.SpillWritten, rec.SpillRead, rec.PeakSpill, rec.Refills = m.SpillBytesWritten, m.SpillBytesRead, m.PeakSpillBytes, m.RefillBatches
	rec.RemoteFetches, rec.FetchRPCs = m.RemoteFetches, m.BatchedFetches
	rec.WireBytes = m.WireBytesSent + m.WireBytesReceived
	rec.CacheHits, rec.CacheMisses, rec.Steals = m.CacheHits, m.CacheMisses, m.TasksStolen

	sets := canonical(res.Cliques)
	rec.Sets = len(sets)
	rec.Hash = answerHash(sets)
	if key := fmt.Sprintf("%d/%s", qi, rec.Hash); qi >= 0 && !p.answers[key] {
		p.answers[key] = true
		p.out.Answers = append(p.out.Answers, answerRec{Query: qi, Hash: rec.Hash, Sets: sets})
	}
	return rec, res
}

// tracedRun mines on a fresh traced session. Its first job is the
// only job that session has run, so the transport and cache totals it
// reports are that job's own; its engine spans go into the trace
// file. The remaining budget times traced jobs for the tracing
// overhead, and a serial quasiclique.MineGraph of the first query
// counts search-tree nodes.
func (p *miningProcess) tracedRun(budget time.Duration, outDir string) error {
	sess := miner.NewSession(p.g, p.engine(true))
	defer sess.Close()
	q := p.w.queries[0]
	first, res := p.mine(sess, 0, q)
	if first.Err != "" {
		return fmt.Errorf("first traced job: %s", first.Err)
	}
	p.out.FirstTraced = first
	p.out.TraceDropped = res.Engine.TraceDropped
	p.out.SpanMs = map[string]float64{}
	if res.Trace != nil {
		for _, s := range res.Trace.Spans {
			p.out.SpanMs[s.Kind.String()] += float64(s.Dur) / 1e6
		}
	}
	p.out.Traced, _ = p.timedPasses(sess, budget)

	start := time.Now()
	sets, st, err := quasiclique.MineGraph(p.g, quasiclique.Params{Gamma: q.Gamma.float(), MinSize: q.MinSize}, quasiclique.Options{})
	if err != nil {
		return fmt.Errorf("serial probe: %w", err)
	}
	p.spans.record("quasiclique.MineGraph", start, map[string]string{"query": q.String()})
	p.out.SerialMs = ms(time.Since(start))
	p.out.SerialNodes = st.Nodes
	p.out.SerialHash = answerHash(canonical(sets))
	return obs.WriteChromeTraceFile(filepath.Join(outDir, engineTraceFile), res.Trace)
}
