package graphstream

import (
	"testing"
	"testing/quick"

	"repro/internal/workload"
)

func TestUnionFindBasics(t *testing.T) {
	u, _ := NewUnionFind(5)
	if u.Components() != 5 {
		t.Fatalf("initial components %d", u.Components())
	}
	if !u.Union(0, 1) || !u.Union(2, 3) {
		t.Fatal("merges failed")
	}
	if u.Union(0, 1) {
		t.Fatal("repeated merge reported true")
	}
	if u.Components() != 3 {
		t.Fatalf("components %d, want 3", u.Components())
	}
	if !u.Connected(0, 1) || u.Connected(0, 2) {
		t.Fatal("connectivity wrong")
	}
	u.Union(1, 2)
	if !u.Connected(0, 3) {
		t.Fatal("transitive connectivity wrong")
	}
}

func TestSpanningForestSizeAndConnectivity(t *testing.T) {
	const n = 200
	sf, _ := NewSpanningForest(n)
	rng := workload.NewRNG(1)
	for _, e := range workload.RandomGraph(rng, n, 5000) {
		sf.Update(e)
	}
	// Dense random graph: almost surely connected -> n-1 tree edges.
	if sf.Components() != 1 {
		t.Fatalf("components %d", sf.Components())
	}
	if len(sf.Edges()) != n-1 {
		t.Fatalf("forest edges %d, want %d", len(sf.Edges()), n-1)
	}
	// Connected answers reachability through the forest, not adjacency.
	path, _ := NewSpanningForest(4)
	path.Update(workload.Edge{U: 0, V: 1})
	path.Update(workload.Edge{U: 1, V: 2})
	if !path.Connected(0, 2) || path.Connected(0, 3) {
		t.Fatal("path 0-1-2: want 0~2 connected and 3 isolated")
	}
}

func TestGreedyMatchingMaximal(t *testing.T) {
	const n = 300
	g, _ := NewGreedyMatching(n)
	rng := workload.NewRNG(2)
	edges := workload.RandomGraph(rng, n, 3000)
	for _, e := range edges {
		g.Update(e)
	}
	// Maximality: no offered edge may have both endpoints free.
	for _, e := range edges {
		if !g.IsMatched(e.U) && !g.IsMatched(e.V) {
			t.Fatalf("edge (%d,%d) violates maximality", e.U, e.V)
		}
	}
	// Matching property: no vertex in two pairs.
	seen := map[int]bool{}
	for _, e := range g.Pairs() {
		if seen[e.U] || seen[e.V] {
			t.Fatal("vertex matched twice")
		}
		seen[e.U], seen[e.V] = true, true
	}
}

func TestVertexCoverCoversEverything(t *testing.T) {
	const n = 150
	g, _ := NewGreedyMatching(n)
	rng := workload.NewRNG(3)
	edges := workload.RandomGraph(rng, n, 2000)
	for _, e := range edges {
		g.Update(e)
	}
	cover := map[int]bool{}
	for _, v := range g.VertexCover() {
		cover[v] = true
	}
	for _, e := range edges {
		if !cover[e.U] && !cover[e.V] {
			t.Fatalf("edge (%d,%d) uncovered", e.U, e.V)
		}
	}
}

func TestWeightedMatchingPrefersHeavy(t *testing.T) {
	w, _ := NewWeightedMatching(4, 0.1)
	w.Update(WeightedEdge{U: 0, V: 1, Weight: 1})
	// A much heavier conflicting edge must displace it.
	w.Update(WeightedEdge{U: 1, V: 2, Weight: 10})
	pairs := w.Pairs()
	if len(pairs) != 1 || pairs[0].Weight != 10 {
		t.Fatalf("displacement failed: %+v", pairs)
	}
	// A light conflicting edge must not.
	w.Update(WeightedEdge{U: 2, V: 3, Weight: 5})
	if len(w.Pairs()) != 1 {
		t.Fatalf("light edge displaced heavy: %+v", w.Pairs())
	}
}

func TestWeightedMatchingQualityVsGreedy(t *testing.T) {
	// On a graph with heavy edges arriving before light conflicting ones
	// and vice versa, the weighted matcher's total weight must at least
	// match unweighted greedy's.
	const n = 200
	rng := workload.NewRNG(4)
	edges := workload.RandomGraph(rng, n, 2000)
	weights := make([]float64, len(edges))
	for i := range weights {
		weights[i] = 1 + rng.Float64()*99
	}
	wm, _ := NewWeightedMatching(n, 1.0)
	gm, _ := NewGreedyMatching(n)
	var greedyWeight float64
	for i, e := range edges {
		wm.Update(WeightedEdge{U: e.U, V: e.V, Weight: weights[i]})
		before := gm.Size()
		gm.Update(e)
		if gm.Size() > before {
			greedyWeight += weights[i]
		}
	}
	if wm.TotalWeight() < greedyWeight*0.8 {
		t.Fatalf("weighted matching %v far below greedy %v", wm.TotalWeight(), greedyWeight)
	}
}

func TestSpannerStretchBound(t *testing.T) {
	const n = 120
	const k = 2 // (2k-1) = 3-spanner
	s, _ := NewSpanner(n, k)
	rng := workload.NewRNG(5)
	edges := workload.RandomGraph(rng, n, 2500)
	// Build exact graph for ground-truth distances.
	exact, _ := NewDynamicReach(n)
	for _, e := range edges {
		s.Update(e)
		exact.Insert(e)
	}
	// Spanner must be sparser than the input.
	if s.Edges() >= 2500/2 {
		t.Fatalf("spanner kept %d of 2500 edges", s.Edges())
	}
	// Stretch: adjacent-in-G pairs must be within 3 hops in the spanner.
	for _, e := range edges[:300] {
		d := s.Distance(e.U, e.V)
		if d < 0 || d > 2*k-1 {
			t.Fatalf("edge (%d,%d) stretched to %d > %d", e.U, e.V, d, 2*k-1)
		}
	}
}

func TestTriangleCounterExact(t *testing.T) {
	tc, _ := NewTriangleCounter(6)
	// K4 on {0,1,2,3} has 4 triangles.
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			tc.Update(workload.Edge{U: i, V: j})
		}
	}
	if tc.Count() != 4 {
		t.Fatalf("K4 triangles %d, want 4", tc.Count())
	}
	// Duplicate edges must not double count.
	tc.Update(workload.Edge{U: 0, V: 1})
	if tc.Count() != 4 {
		t.Fatalf("duplicate edge changed count to %d", tc.Count())
	}
	// An edge to an isolated vertex adds nothing.
	tc.Update(workload.Edge{U: 4, V: 5})
	if tc.Count() != 4 {
		t.Fatal("isolated edge added triangles")
	}
}

func TestTriangleCounterMatchesBrute(t *testing.T) {
	const n = 40
	rng := workload.NewRNG(6)
	edges := workload.RandomGraph(rng, n, 300)
	tc, _ := NewTriangleCounter(n)
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	for _, e := range edges {
		tc.Update(e)
		adj[e.U][e.V] = true
		adj[e.V][e.U] = true
	}
	var brute uint64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !adj[i][j] {
				continue
			}
			for k := j + 1; k < n; k++ {
				if adj[i][k] && adj[j][k] {
					brute++
				}
			}
		}
	}
	if tc.Count() != brute {
		t.Fatalf("streaming %d != brute %d", tc.Count(), brute)
	}
}

func TestDynamicReachPathQueries(t *testing.T) {
	const n = 50
	d, _ := NewDynamicReach(n)
	for _, e := range workload.PathGraph(n) {
		d.Insert(e)
	}
	if !d.WithinL(0, 10, 10) {
		t.Fatal("path of exactly length 10 not found")
	}
	if d.WithinL(0, 10, 9) {
		t.Fatal("found path shorter than exists")
	}
	if !d.WithinL(7, 7, 0) {
		t.Fatal("self not within 0")
	}
	// Delete a middle edge: reachability across it must vanish.
	d.Delete(workload.Edge{U: 5, V: 6})
	if d.WithinL(0, 10, 49) {
		t.Fatal("reachability survived edge deletion")
	}
	// Shortcut edge restores it with shorter length.
	d.Insert(workload.Edge{U: 0, V: 10})
	if !d.WithinL(0, 10, 1) {
		t.Fatal("shortcut not used")
	}
}

func TestQuickSpanningForestComponentsMatchUF(t *testing.T) {
	f := func(raw []uint16) bool {
		const n = 32
		sf, _ := NewSpanningForest(n)
		uf, _ := NewUnionFind(n)
		for _, r := range raw {
			u := int(r) % n
			v := int(r>>8) % n
			if u == v {
				continue
			}
			sf.Update(workload.Edge{U: u, V: v})
			uf.Union(u, v)
		}
		return sf.Components() == uf.Components()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGreedyMatchingUpdate(b *testing.B) {
	g, _ := NewGreedyMatching(1 << 16)
	rng := workload.NewRNG(1)
	edges := workload.RandomGraph(rng, 1<<16, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Update(edges[i%len(edges)])
	}
}

func BenchmarkTriangleCounterUpdate(b *testing.B) {
	tc, _ := NewTriangleCounter(1 << 12)
	rng := workload.NewRNG(1)
	edges := workload.RandomGraph(rng, 1<<12, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc.Update(edges[i%len(edges)])
	}
}
