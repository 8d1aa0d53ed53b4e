package graph

// MinVertexCut solves Gscale's resizing-target selection: given the critical
// path network (CPN) as the nodes of positive weight in a DAG (the weight is
// the paper's area-penalty over timing-gain ratio; use Inf for a member that
// cannot be resized) and a set of exit members, find the minimum-weight set
// of members whose removal disconnects every path from an entry to an exit
// inside the network. The entries are the members no arc from another member
// enters. Because every critical path crosses the cut exactly once, resizing
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
// succ[v] lists the arcs out of node v and node maps an arc to its head, as
// for MaxWeightAntichain, so a caller passes its own adjacency as it stands
// (Gscale passes the timing engine's consumer table) and marks the network
// with weight and isExit alone; arcs to or from nodes of weight zero are
// skipped. The members are numbered in ascending order, so the network and
// its arcs come out in the caller's node and arc order.
//
// Returns the cut (ascending node indices), its weight, and ok=false when no
// finite-weight cut exists (every path is blocked by an Inf node, or an entry
// is itself an exit with infinite weight).
func MinVertexCut[E any](n int, succ [][]E, node func(E) int, weight []int64, isExit []bool) ([]int, int64, bool) {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.region = grow(sc.region, n)
	orig := sc.orig[:0]
	for v, w := range weight[:n] {
		if w < 0 {
			panic("graph: MinVertexCut requires non-negative weights (use Inf for fixed nodes)")
		}
		if w > 0 {
			sc.region[v] = int32(len(orig))
			orig = append(orig, v)
		}
	}
	sc.orig = orig
	m := len(orig)
	if m == 0 {
		return nil, 0, true
	}
	s, t := 2*m, 2*m+1
	g := &sc.net
	g.reset(2*m + 2)
	for k, v := range orig {
		g.AddArc(2*k, 2*k+1, weight[v])
	}
	// entered marks the members some member arc enters; the rest are the
	// entries.
	sc.mark = grow(sc.mark, m)
	entered := sc.mark
	clear(entered)
	for k, u := range orig {
		for _, e := range succ[u] {
			if v := node(e); weight[v] > 0 {
				j := sc.region[v]
				g.AddArc(2*k+1, 2*int(j), Inf)
				entered[j] = 1
			}
		}
	}
	for k, v := range orig {
		if entered[k] == 0 {
			g.AddArc(s, 2*k, Inf)
		}
		if isExit[v] {
			g.AddArc(2*k+1, t, Inf)
		}
	}
	flow := g.MaxFlowDinic(s, t)
	if flow >= Inf {
		return nil, flow, false
	}
	inS := g.ReachableFrom(s)
	var cut []int
	var total int64
	for k, v := range orig {
		if inS[2*k] && !inS[2*k+1] {
			cut = append(cut, v)
			total += weight[v]
		}
	}
	if total != flow {
		panic("graph: separator weight does not match max-flow value")
	}
	return cut, total, true
}
