package main

import (
	"fmt"
	"strconv"
	"time"

	"gthinkerqc/internal/gthinker"
	"gthinkerqc/internal/miner"
	"gthinkerqc/internal/quasiclique"
)

// frac is γ held exactly: num/den.
type frac struct{ num, den int }

func (f frac) float() float64 { return float64(f.num) / float64(f.den) }

// ceilMul is ⌈γ·x⌉ in integer arithmetic.
func (f frac) ceilMul(x int) int {
	if x <= 0 {
		return 0
	}
	return (f.num*x + f.den - 1) / f.den
}

func (f frac) String() string { return strconv.FormatFloat(f.float(), 'f', -1, 64) }

// query is one mining job's parameters; zero TauSplit and TauTime
// leave the program's defaults.
type query struct {
	Gamma    frac
	MinSize  int
	TauSplit int
	TauTime  time.Duration
}

func (q query) String() string { return fmt.Sprintf("γ=%v τsize=%d", q.Gamma, q.MinSize) }

func (q query) config() miner.Config {
	return miner.Config{
		Params:   quasiclique.Params{Gamma: q.Gamma.float(), MinSize: q.MinSize},
		TauSplit: q.TauSplit,
		TauTime:  q.TauTime,
	}
}

// workload is one benchmark scenario. queries is one pass of the jobs
// it repeats; warmup is the untimed first job; engine is the cluster
// shape of the process that mines.
type workload struct {
	name    string
	graph   graphSpec
	queries []query
	warmup  query
	engine  gthinker.Config
	// serve runs the jobs through a qcserved child over HTTP instead
	// of an in-process miner.Session.
	serve bool
}

// indexOf returns q's index in one pass, or -1.
func (w workload) indexOf(q query) int {
	for i, x := range w.queries {
		if x == q {
			return i
		}
	}
	return -1
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want hardcore, sparse-tcp or serve-mix)", name)
}

func workloads() []workload {
	hard := query{Gamma: g9of10, MinSize: 16, TauSplit: 100, TauTime: 10 * time.Microsecond}
	sparse := query{Gamma: g9of10, MinSize: 12}
	var mix []query
	for _, g := range serveGammas {
		for _, t := range serveMinSizes {
			mix = append(mix, query{Gamma: g, MinSize: t})
		}
	}
	return []workload{
		{
			name: "hardcore", graph: hardcoreGraph, queries: []query{hard}, warmup: hard,
			engine: gthinker.Config{Machines: 1, WorkersPerMachine: 2},
		},
		{
			name: "sparse-tcp", graph: sparseGraph, queries: []query{sparse}, warmup: sparse,
			engine: gthinker.Config{Machines: 2, WorkersPerMachine: 1, InProcessTCP: true},
		},
		{
			// qcserved's default in-process shape: one machine, two threads.
			name: "serve-mix", graph: serveGraph, queries: mix, warmup: query{Gamma: g9of10, MinSize: 15},
			engine: gthinker.Config{Machines: 1, WorkersPerMachine: 2},
			serve:  true,
		},
	}
}

var (
	serveGammas   = []frac{g22of25, g9of10, g23of25, g19of20}
	serveMinSizes = []int{13, 15, 17, 19}
)

var (
	g22of25 = frac{22, 25}
	g9of10  = frac{9, 10}
	g23of25 = frac{23, 25}
	g19of20 = frac{19, 20}
)

// YouTube-shaped: a sparse heavy-tailed background, one large core
// just below γ and ten normal communities.
// The seed is one whose core costs about 86k subtasks and 15 MB of
// spill per job on the hardcore query.
var hardcoreGraph = graphSpec{
	Seed: 3, N: 45000, Attach: 2,
	Communities: []community{
		{Size: 34, Density: 0.87, Count: 1},
		{Size: 19, Density: 0.94, Count: 5},
		{Size: 17, Density: 0.95, Count: 5},
	},
}

var sparseGraph = graphSpec{
	Seed: 500000, N: 500000, Attach: 3,
	Communities: []community{{Size: 18, Density: 0.95, Count: 20}},
}

// Enron-shaped: heavy-tailed background with overlapping-degree dense
// cores, four of them heavy and below γ.
var serveGraph = graphSpec{
	Seed: 36692, N: 18000, Attach: 5,
	Communities: []community{
		{Size: 20, Density: 0.94, Count: 8},
		{Size: 17, Density: 0.95, Count: 10},
		{Size: 29, Density: 0.87, Count: 4},
	},
}
