package main

import (
	"fmt"
	"hash/fnv"
	"sort"

	"chordal"
)

// edgeHash is the FNV-1a digest of g's edge set in canonical order
// (u ascending, then v ascending, u < v), each endpoint as 4
// little-endian bytes; equal hashes witness byte-identical edge sets.
func edgeHash(g *chordal.Graph) string {
	h := fnv.New64a()
	var buf [8]byte
	var nb []int32
	for u := int32(0); int(u) < g.NumVertices(); u++ {
		nb = nb[:0]
		for _, v := range g.Neighbors(u) {
			if v > u {
				nb = append(nb, v)
			}
		}
		sort.Slice(nb, func(i, j int) bool { return nb[i] < nb[j] })
		for _, v := range nb {
			buf[0], buf[1], buf[2], buf[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
			buf[4], buf[5], buf[6], buf[7] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// isSubgraph reports whether sub has in's vertex set and only edges of in.
func isSubgraph(sub, in *chordal.Graph) bool {
	if sub.NumVertices() != in.NumVertices() {
		return false
	}
	ok := true
	sub.Edges(func(u, v int32) {
		if ok && !in.HasEdge(u, v) {
			ok = false
		}
	})
	return ok
}

// loadSource generates or reads the graph a source spec names.
func loadSource(spec string) (*chordal.Graph, error) {
	src, err := chordal.ParseSource(spec)
	if err != nil {
		return nil, err
	}
	return src.Load()
}
