package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"slices"
	"strconv"
)

// rng is splitmix64: small, seedable, and identical on every platform,
// so a seed names one input forever.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// community is a group of planted dense communities: Count disjoint
// copies of Size vertices with intra-group edge probability Density.
type community struct {
	Size    int
	Density float64
	Count   int
}

// graphSpec fixes one workload's graph: a preferential-attachment
// background (Attach edges per new vertex) plus planted communities.
type graphSpec struct {
	Seed        uint64
	N           int
	Attach      int
	Communities []community
}

// input is a generated graph in canonical (generator) labels: packed
// edges u<<32|v with u < v, sorted and unique, and the planted
// communities' members.
type input struct {
	n       int
	edges   []uint64
	planted [][]uint32
}

func pack(u, v uint32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

func unpack(e uint64) (uint32, uint32) { return uint32(e >> 32), uint32(e) }

// generate builds the graph of sp. Attachment targets are kept in the
// order they were drawn (a slice, never a map), so the edge sequence
// and every later draw depend on the seed alone.
func generate(sp graphSpec) *input {
	r := &rng{s: sp.Seed}
	m0 := sp.Attach + 1
	edges := make([]uint64, 0, sp.N*sp.Attach+sp.N/8)
	endpoints := make([]uint32, 0, 2*sp.N*sp.Attach)
	for i := 0; i < m0; i++ {
		for j := i + 1; j < m0; j++ {
			edges = append(edges, pack(uint32(i), uint32(j)))
			endpoints = append(endpoints, uint32(i), uint32(j))
		}
	}
	targets := make([]uint32, 0, sp.Attach)
	for v := m0; v < sp.N; v++ {
		targets = targets[:0]
		for len(targets) < sp.Attach {
			t := endpoints[r.intn(len(endpoints))]
			if !containsV(targets, t) {
				targets = append(targets, t)
			}
		}
		for _, t := range targets {
			edges = append(edges, pack(uint32(v), t))
			endpoints = append(endpoints, uint32(v), t)
		}
	}

	// Communities occupy disjoint blocks of a seeded permutation.
	perm := make([]uint32, sp.N)
	for i := range perm {
		perm[i] = uint32(i)
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	in := &input{n: sp.N}
	next := 0
	for _, c := range sp.Communities {
		for k := 0; k < c.Count; k++ {
			members := append([]uint32(nil), perm[next:next+c.Size]...)
			next += c.Size
			for i := range members {
				for j := i + 1; j < len(members); j++ {
					if r.float() < c.Density {
						edges = append(edges, pack(members[i], members[j]))
					}
				}
			}
			slices.Sort(members)
			in.planted = append(in.planted, members)
		}
	}
	slices.Sort(edges)
	in.edges = dedupe(edges)
	return in
}

func containsV(s []uint32, v uint32) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func dedupe(sorted []uint64) []uint64 {
	out := sorted[:0]
	for i, e := range sorted {
		if i == 0 || e != sorted[i-1] {
			out = append(out, e)
		}
	}
	return out
}

// fingerprint names the graph independently of file layout: |V|, |E|
// and an FNV-1a hash of the sorted canonical edge list.
func (in *input) fingerprint() string {
	h := fnv.New64a()
	var buf [8]byte
	for _, e := range in.edges {
		binary.LittleEndian.PutUint64(buf[:], e)
		h.Write(buf[:])
	}
	return fmt.Sprintf("|V|=%d |E|=%d edges-fnv64=%016x", in.n, len(in.edges), h.Sum64())
}

// fileGraph is the graph as one run's text file presents it, and the
// checker's own adjacency of it (sorted rows).
type fileGraph struct {
	path    string
	adj     [][]uint32
	planted [][]uint32
	bytes   int64
}

// writeEdgeFile writes in's edges to path as "u v" lines with u < v,
// grouped by v in increasing order, the lines within each group in an
// order drawn from runSeed. Every vertex but 0 has a smaller
// neighbour, so vertices first appear in increasing order whatever the
// seed: a loader that numbers vertices by first appearance keeps the
// generator's labels, and every seed yields the same graph as the
// program numbers it.
func writeEdgeFile(in *input, runSeed uint64, path string) (*fileGraph, error) {
	r := &rng{s: runSeed ^ 0x5eed5eed5eed5eed}
	byMax := slices.Clone(in.edges)
	slices.SortFunc(byMax, func(a, b uint64) int {
		if d := int(uint32(a)) - int(uint32(b)); d != 0 {
			return d
		}
		return int(a>>32) - int(b>>32)
	})
	for lo := 0; lo < len(byMax); {
		hi := lo
		for hi < len(byMax) && uint32(byMax[hi]) == uint32(byMax[lo]) {
			hi++
		}
		for i := hi - 1; i > lo; i-- {
			j := lo + r.intn(i-lo+1)
			byMax[i], byMax[j] = byMax[j], byMax[i]
		}
		lo = hi
	}

	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	deg := make([]uint32, in.n)
	seen := make([]bool, in.n)
	next := uint32(0)
	var line []byte
	var written int64
	for _, e := range byMax {
		u, v := unpack(e)
		for _, x := range [2]uint32{u, v} {
			if !seen[x] {
				if x != next {
					f.Close()
					return nil, fmt.Errorf("vertex %d first appears before vertex %d", x, next)
				}
				seen[x] = true
				next++
			}
		}
		deg[u]++
		deg[v]++
		line = strconv.AppendUint(line[:0], uint64(u), 10)
		line = append(line, ' ')
		line = strconv.AppendUint(line, uint64(v), 10)
		line = append(line, '\n')
		n, _ := w.Write(line)
		written += int64(n)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	if int(next) != in.n {
		return nil, fmt.Errorf("generator left %d of %d vertices without edges", in.n-int(next), in.n)
	}

	fg := &fileGraph{path: path, adj: make([][]uint32, in.n), bytes: written, planted: in.planted}
	flat := make([]uint32, 2*len(in.edges))
	off := 0
	for v := range fg.adj {
		fg.adj[v] = flat[off : off : off+int(deg[v])]
		off += int(deg[v])
	}
	for _, e := range in.edges {
		u, v := unpack(e)
		fg.adj[u] = append(fg.adj[u], v)
		fg.adj[v] = append(fg.adj[v], u)
	}
	for _, row := range fg.adj {
		slices.Sort(row)
	}
	return fg, nil
}

func (fg *fileGraph) hasEdge(u, v uint32) bool {
	_, ok := slices.BinarySearch(fg.adj[u], v)
	return ok
}
