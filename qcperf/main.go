// Command qcperf is the end-to-end benchmark of the quasi-clique
// miner. It generates a seeded input graph, runs one workload against
// the program through its public entry points (graph.LoadEdgeListFile
// and miner.Session in a mining child process, or the qcserved HTTP
// API), checks every answer with computations of its own, and prints
// one JSON line of metrics as the last line of standard output.
//
//	qcperf --workload hardcore --seed 1 --seconds 25 --trace 0
//	qcperf gen --workload serve-mix --seed 1 --out graph.txt
//
// See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"job_p50_ms", "ms"},
	{"job_tail_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"cpu_ms_per_job", "ms"},
	{"peak_rss_mb", "MiB"},
}

var perLayer = []metricDef{
	{"graph.load_ms", "ms"},
	{"graph.edges_per_s", "1/s"},
	{"miner.engine_ms", "ms"},
	{"miner.finalize_ms", "ms"},
	{"miner.mining_ms", "ms"},
	{"miner.materialize_ms", "ms"},
	{"miner.top_root_share", "ratio"},
	{"quasiclique.nodes", "count"},
	{"quasiclique.ns_per_node", "ns"},
	{"gthinker.busy_frac", "ratio"},
	{"gthinker.busy_imbalance", "ratio"},
	{"gthinker.tasks", "count"},
	{"gthinker.subtasks", "count"},
	{"gthinker.spill_mb", "MiB"},
	{"gthinker.refills", "count"},
	{"gthinker.peak_spill_mb", "MiB"},
	{"gthinker.remote_fetches", "count"},
	{"gthinker.fetch_rpcs", "count"},
	{"gthinker.ids_per_rpc", "count"},
	{"gthinker.wire_mb", "MiB"},
	{"gthinker.cache_hit_ratio", "ratio"},
	{"gthinker.steals", "count"},
	{"gthinker.spawn_ms", "ms"},
	{"gthinker.fetch_ms", "ms"},
	{"gthinker.spill_ms", "ms"},
	{"gthinker.refill_ms", "ms"},
	{"gthinker.peak_heap_mb", "MiB"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.run_ms", "ms"},
	{"serve.hit_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.results_ms", "ms"},
	{"serve.results_mb", "MiB"},
	{"serve.rss_growth_mb", "MiB"},
	{"obs.trace_overhead_pct", "%"},
}

// spanUnavailable marks a span sum the engine's trace rings could not
// hold in full (Metrics.TraceDropped > 0).
const spanUnavailable = -1

// runResult is what one workload run produced.
type runResult struct {
	attempted, failed int
	e2e               map[string]float64
	layers            map[string]float64
}

// runEnv is what every workload runner gets.
type runEnv struct {
	w       workload
	seed    uint64
	seconds float64
	trace   bool
	bin     string // directory holding the qcperf and qcserved binaries
	work    string // per-run scratch directory, removed afterwards
	results string // where the traced run writes its files
	chk     *checker
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "mine-child" {
		if err := runMineChild(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "qcperf mine-child:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "gen" {
		if err := runGen(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "qcperf gen:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "qcperf:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "hardcore, sparse-tcp or serve-mix")
	seed := flag.Uint64("seed", 1, "run seed: the order of the edge list's lines")
	seconds := flag.Float64("seconds", 25, "seconds of timed jobs")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics, layers JSON and a Chrome trace")
	workRoot := flag.String("workdir", ".bench_build/qcperf-work", "scratch directory for generated inputs")
	results := flag.String("results", "qcperf/results", "directory for the traced run's files")
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*workRoot, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(*workRoot, w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	env := &runEnv{
		w: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		bin: filepath.Dir(exe), work: work, results: *results, chk: &checker{},
	}

	in := generate(w.graph)
	fg, err := writeEdgeFile(in, env.seed, filepath.Join(work, "graph.txt"))
	if err != nil {
		return err
	}
	env.chk.g = fg
	fmt.Printf("qcperf: workload=%s seed=%d input %s graph-seed=%d file-bytes=%d planted=%d\n",
		w.name, env.seed, in.fingerprint(), w.graph.Seed, fg.bytes, len(fg.planted))

	var res *runResult
	if w.serve {
		res, err = runServeMix(env)
	} else {
		res, err = runLocal(env)
	}
	if err != nil {
		return err
	}
	fmt.Printf("qcperf: jobs attempted=%d failed=%d; checks made=%d failed=%d\n",
		res.attempted, res.failed, env.chk.made, env.chk.failed)
	for _, n := range env.chk.notes {
		fmt.Fprintln(os.Stderr, "qcperf: check failed:", n)
	}

	defs, values := endToEnd, res.e2e
	if env.trace {
		defs, values = perLayer, res.layers
		if err := writeLayers(env, values); err != nil {
			return err
		}
	}
	metrics := map[string]any{}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   env.chk.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// writeLayers saves the traced run's per-layer metrics beside its
// Chrome trace.
func writeLayers(env *runEnv, layers map[string]float64) error {
	out := map[string]any{"workload": env.w.name, "seed": env.seed, "metrics": layers}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(env.results, env.w.name+"-layers.json")
	fmt.Printf("qcperf: wrote %s and %s\n", path, filepath.Join(env.results, env.w.name+"-trace.json"))
	return os.WriteFile(path, data, 0o644)
}

// runGen is the "gen" subcommand: it writes a workload's input file
// exactly as a run with the same seed would.
func runGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "run seed")
	out := fs.String("out", "", "output edge-list path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return errors.New("-out is required")
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	in := generate(w.graph)
	fg, err := writeEdgeFile(in, *seed, *out)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %s, %d bytes\n", *out, in.fingerprint(), fg.bytes)
	for _, c := range fg.planted {
		fmt.Println("planted", c)
	}
	return nil
}
