package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
)

// checker verifies answers against the benchmark's own copy of the
// graph, with γ held as an exact fraction. It never calls the miner.
type checker struct {
	g      *fileGraph
	made   int
	failed int
	notes  []string
}

// expect counts one check, and records it as failed unless ok.
func (c *checker) expect(ok bool, format string, args ...any) {
	c.made++
	if !ok {
		c.failed++
		if len(c.notes) < 20 {
			c.notes = append(c.notes, fmt.Sprintf(format, args...))
		}
	}
}

// canonical sorts each set and the list of sets, so two answers
// compare (and hash) equal exactly when they hold the same sets.
func canonical(sets [][]uint32) [][]uint32 {
	for _, s := range sets {
		slices.Sort(s)
	}
	slices.SortFunc(sets, func(a, b []uint32) int { return slices.Compare(a, b) })
	return sets
}

// answerHash is an FNV-1a hash of a canonical answer.
func answerHash(sets [][]uint32) string {
	h := fnv.New64a()
	var buf [4]byte
	for _, s := range sets {
		binary.LittleEndian.PutUint32(buf[:], uint32(len(s)))
		h.Write(buf[:])
		for _, v := range s {
			binary.LittleEndian.PutUint32(buf[:], v)
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// inducedDegrees returns each member's neighbour count inside s.
func (c *checker) inducedDegrees(s []uint32) []int {
	deg := make([]int, len(s))
	for i, u := range s {
		for _, v := range s {
			if u != v && c.g.hasEdge(u, v) {
				deg[i]++
			}
		}
	}
	return deg
}

// isQuasiClique reports whether every member of s has at least
// ⌈γ(|s|−1)⌉ neighbours inside s.
func (c *checker) isQuasiClique(s []uint32, gamma frac) bool {
	need := gamma.ceilMul(len(s) - 1)
	for _, d := range c.inducedDegrees(s) {
		if d < need {
			return false
		}
	}
	return true
}

func (c *checker) connected(s []uint32) bool {
	if len(s) == 0 {
		return false
	}
	seen := make([]bool, len(s))
	seen[0] = true
	stack := []int{0}
	reached := 1
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for j, v := range s {
			if !seen[j] && c.g.hasEdge(s[i], v) {
				seen[j] = true
				reached++
				stack = append(stack, j)
			}
		}
	}
	return reached == len(s)
}

// extensible reports whether one vertex outside s turns s into a
// larger γ-quasi-clique. Only vertices with at least ⌈γ|s|⌉
// neighbours in s can, so candidates come from the members' rows.
func (c *checker) extensible(s []uint32, gamma frac, cnt map[uint32]int) bool {
	clear(cnt)
	for _, u := range s {
		for _, v := range c.g.adj[u] {
			cnt[v]++
		}
	}
	need := gamma.ceilMul(len(s))
	deg := c.inducedDegrees(s)
	for v, k := range cnt {
		if k < need {
			continue
		}
		if _, in := slices.BinarySearch(s, v); in {
			continue
		}
		ok := true
		for i, u := range s {
			d := deg[i]
			if c.g.hasEdge(u, v) {
				d++
			}
			if d < need {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// subset reports a ⊆ b for sorted sets.
func subset(a, b []uint32) bool {
	i := 0
	for _, v := range b {
		if i < len(a) && a[i] == v {
			i++
		}
	}
	return i == len(a)
}

// checkAnswer verifies one canonical answer of a (γ, τsize) query:
// every set is a connected γ-quasi-clique of at least τsize vertices,
// no set lies inside another, no single outside vertex extends a set,
// and every planted community the checker confirms as a γ-quasi-clique
// of size ≥ τsize lies inside some returned set.
func (c *checker) checkAnswer(label string, sets [][]uint32, gamma frac, minSize int) {
	byVertex := map[uint32][]int{}
	for i, s := range sets {
		for _, v := range s {
			byVertex[v] = append(byVertex[v], i)
		}
	}
	cnt := map[uint32]int{}
	for i, s := range sets {
		c.expect(len(s) >= minSize, "%s: set %d has %d < τsize=%d members", label, i, len(s), minSize)
		valid := len(s) > 0 && s[len(s)-1] < uint32(len(c.g.adj))
		for k := 1; k < len(s); k++ {
			valid = valid && s[k-1] < s[k]
		}
		c.expect(valid, "%s: set %d %v is not distinct vertices of the graph", label, i, s)
		if !valid {
			continue
		}
		c.expect(c.isQuasiClique(s, gamma), "%s: set %d %v is not a %v-quasi-clique", label, i, s, gamma)
		c.expect(c.connected(s), "%s: set %d is not connected", label, i)
		c.expect(!c.extensible(s, gamma, cnt), "%s: set %d %v extends by one vertex", label, i, s)
		// Any set holding s holds s's smallest member.
		inside := false
		for _, j := range byVertex[s[0]] {
			if j != i && len(sets[j]) >= len(s) && subset(s, sets[j]) {
				inside = true
				break
			}
		}
		c.expect(!inside, "%s: set %d lies inside another set", label, i)
	}
	for k, p := range c.g.planted {
		if len(p) < minSize || !c.isQuasiClique(p, gamma) {
			continue
		}
		found := false
		for _, j := range byVertex[p[0]] {
			if subset(p, sets[j]) {
				found = true
				break
			}
		}
		c.expect(found, "%s: planted community %d (%d vertices) is in no returned set", label, k, len(p))
	}
}
