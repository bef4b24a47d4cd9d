package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

// quadraticRandomTree is the original Prüfer decoder: every step scans
// from node 0 for the smallest leaf. It is the oracle for RandomTree.
func quadraticRandomTree(n int, rng *rand.Rand) *Graph {
	if n <= 1 {
		return MustNew(n, nil)
	}
	if n == 2 {
		return MustNew(2, []Edge{{U: 0, V: 1}})
	}
	prufer := make([]int, n-2)
	for i := range prufer {
		prufer[i] = rng.Intn(n)
	}
	degree := make([]int, n)
	for i := range degree {
		degree[i] = 1
	}
	for _, v := range prufer {
		degree[v]++
	}
	var edges []Edge
	for _, v := range prufer {
		for u := 0; u < n; u++ {
			if degree[u] == 1 {
				edges = append(edges, Edge{U: u, V: v})
				degree[u]--
				degree[v]--
				break
			}
		}
	}
	u, w := -1, -1
	for v := 0; v < n; v++ {
		if degree[v] == 1 {
			if u == -1 {
				u = v
			} else {
				w = v
			}
		}
	}
	edges = append(edges, Edge{U: u, V: w})
	return MustNew(n, edges)
}

func TestRandomTreeMatchesQuadraticOracle(t *testing.T) {
	check := func(n int, seed int64) {
		got := RandomTree(n, rand.New(rand.NewSource(seed)))
		want := quadraticRandomTree(n, rand.New(rand.NewSource(seed)))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("RandomTree(%d) with seed %d differs from the quadratic decoder", n, seed)
		}
	}
	for n := 0; n < 64; n++ {
		for seed := int64(0); seed < 50; seed++ {
			check(n, seed)
		}
	}
	for seed := int64(0); seed < 5; seed++ {
		check(20000, seed)
	}
}

func BenchmarkRandomTree(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RandomTree(100000, rand.New(rand.NewSource(int64(i))))
	}
}
