package graph

// MinVertexCut solves Gscale's resizing-target selection: given the critical
// path network (CPN) as a DAG, a positive weight per node (the paper's
// area-penalty over timing-gain ratio; use Inf for nodes that cannot be
// resized), a set of entry nodes and a set of exit nodes, find the
// minimum-weight set of nodes whose removal disconnects every entry→exit
// path. Because every critical path crosses the cut exactly once, resizing
// the cut simultaneously speeds up all critical paths while never touching
// two gates on the same path — the property the paper needs so that the
// timing gains computed before the cut remain valid.
//
// The reduction is the textbook node-splitting construction solved by
// max-flow/min-cut (the paper cites Cormen, Leiserson & Rivest, chapter 27,
// and Edmonds–Karp). The max flow runs on Dinic's algorithm; the cut is the
// same as Edmonds–Karp's, because it is read off the nodes reachable from the
// source in the residual network, and that set is the same for every maximum
// flow.
//
// Returns the cut (ascending node indices), its weight, and ok=false when no
// finite-weight cut exists (every path is blocked by an Inf node, or an entry
// is itself an exit with infinite weight).
func MinVertexCut(n int, succ [][]int, weight []int64, isEntry, isExit []bool) ([]int, int64, bool) {
	if n == 0 {
		return nil, 0, true
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	s, t := 2*n, 2*n+1
	g := &sc.net
	g.reset(2*n + 2)
	for v := 0; v < n; v++ {
		w := weight[v]
		if w <= 0 {
			panic("graph: MinVertexCut requires positive weights (use Inf for fixed nodes)")
		}
		g.AddArc(2*v, 2*v+1, w)
	}
	for u := 0; u < n; u++ {
		for _, v := range succ[u] {
			g.AddArc(2*u+1, 2*v, Inf)
		}
	}
	for v := 0; v < n; v++ {
		if isEntry[v] {
			g.AddArc(s, 2*v, Inf)
		}
		if isExit[v] {
			g.AddArc(2*v+1, t, Inf)
		}
	}
	flow := g.MaxFlowDinic(s, t)
	if flow >= Inf {
		return nil, flow, false
	}
	inS := g.ReachableFrom(s)
	var cut []int
	var total int64
	for v := 0; v < n; v++ {
		if inS[2*v] && !inS[2*v+1] {
			cut = append(cut, v)
			total += weight[v]
		}
	}
	if total != flow {
		panic("graph: separator weight does not match max-flow value")
	}
	return cut, total, true
}
