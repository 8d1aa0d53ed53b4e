package graph

// MaxWeightAntichain solves the selection problem at the heart of Dscale:
// given the circuit DAG and a non-negative weight per node (the power gain of
// scaling that node, zero for non-candidates), find the maximum-weight set of
// candidates no two of which lie on a common path. In the paper's terms this
// is the maximum-weight independent set of the transitive graph of candSet
// [Kagaris & Tragoudas]; equivalently, a maximum-weight antichain of the
// reachability partial order.
//
// The implementation avoids materialising the transitive graph. By LP duality
// (the weighted Dilworth theorem), the maximum antichain weight equals the
// minimum value of a flow that covers every node v with at least weight(v)
// units along source-to-sink paths of the DAG. That min-flow problem is
// solved in two phases on a node-split network: a feasible flow is seeded by
// routing weight(v) units through every weighted node, then reduced to
// minimality by a max-flow run from sink to source over the residual network
// (with reverse capacities trimmed so no node drops below its lower bound).
// The antichain is read off the min cut of the residual network.
//
// succ[v] lists the direct successors of node v; the graph must be a DAG.
// Returns the selected node indices (ascending) and their total weight.
func MaxWeightAntichain(n int, succ [][]int, weight []int64) ([]int, int64) {
	if n == 0 {
		return nil, 0
	}
	total := int64(0)
	for _, w := range weight {
		if w < 0 {
			panic("graph: MaxWeightAntichain requires non-negative weights")
		}
		total += w
	}
	if total == 0 {
		return nil, 0
	}

	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	feasible := sc.antichainNetwork(n, succ, weight)

	// Phase 2: reduce the feasible flow to its minimum with a max-flow run
	// from t to s over the residual network.
	g, s, t := &sc.net, 2*n, 2*n+1
	reduced := g.MaxFlowDinic(t, s)
	minFlow := feasible - reduced

	// Extract the antichain from the min cut: X is the t-side; a weighted
	// node whose arc crosses from outside X into X is pinned at its lower
	// bound and no other such node is reachable from it.
	inX := g.ReachableFrom(t)
	var set []int
	var got int64
	for v := 0; v < n; v++ {
		if weight[v] > 0 && inX[2*v+1] && !inX[2*v] {
			set = append(set, v)
			got = got + weight[v]
		}
	}
	if got != minFlow {
		// The duality argument guarantees equality; failing it means the
		// network construction is broken, which tests guard against.
		panic("graph: antichain weight does not match min-flow value")
	}
	return set, got
}

// antichainNetwork builds MaxWeightAntichain's node-split network in sc.net
// and seeds it with a feasible flow (phase 1), with each node arc's
// cancelable flow trimmed to its lower bound. Node v becomes arc
// v_in(2v) → v_out(2v+1); s = 2n, t = 2n+1. It returns the feasible flow's
// value.
func (sc *scratch) antichainNetwork(n int, succ [][]int, weight []int64) int64 {
	s, t := 2*n, 2*n+1
	g := &sc.net
	g.reset(2*n + 2)

	sc.nodeArc = grow(sc.nodeArc, n)
	nodeArc := sc.nodeArc
	for v := 0; v < n; v++ {
		nodeArc[v] = g.AddArc(2*v, 2*v+1, Inf)
	}
	// pathUp[v]: a predecessor to route feasible flow through (-1 marks a
	// DAG source); upArc[v]: the arc (pathUp[v]_out → v_in).
	sc.pathUp, sc.upArc = grow(sc.pathUp, n), grow(sc.upArc, n)
	sc.pathDown, sc.downArc = grow(sc.pathDown, n), grow(sc.downArc, n)
	pathUp, upArc, pathDown, downArc := sc.pathUp, sc.upArc, sc.pathDown, sc.downArc
	for v := 0; v < n; v++ {
		pathUp[v], pathDown[v] = -1, -1
		upArc[v], downArc[v] = -1, -1
	}
	for u := 0; u < n; u++ {
		for _, v := range succ[u] {
			id := g.AddArc(2*u+1, 2*v, Inf)
			if pathUp[v] < 0 {
				pathUp[v] = u
				upArc[v] = id
			}
			if pathDown[u] < 0 {
				pathDown[u] = v
				downArc[u] = id
			}
		}
	}
	sc.srcArc, sc.sinkArc = grow(sc.srcArc, n), grow(sc.sinkArc, n)
	srcArc, sinkArc := sc.srcArc, sc.sinkArc
	for v := 0; v < n; v++ {
		srcArc[v], sinkArc[v] = -1, -1
		if pathUp[v] < 0 {
			srcArc[v] = g.AddArc(s, 2*v, Inf)
		}
		if len(succ[v]) == 0 {
			sinkArc[v] = g.AddArc(2*v+1, t, Inf)
		}
	}

	// Phase 1: feasible flow — route weight(v) through v, up to s and down
	// to t along the precomputed parent/child chains.
	var feasible int64
	for v := 0; v < n; v++ {
		w := weight[v]
		if w == 0 {
			continue
		}
		feasible += w
		g.push(nodeArc[v], w)
		u := v
		for pathUp[u] >= 0 {
			g.push(upArc[u], w)
			u = pathUp[u]
			g.push(nodeArc[u], w)
		}
		g.push(srcArc[u], w)
		u = v
		for pathDown[u] >= 0 {
			g.push(downArc[u], w)
			u = pathDown[u]
			g.push(nodeArc[u], w)
		}
		g.push(sinkArc[u], w)
	}

	// Enforce lower bounds: no node's flow may be cancelled below its
	// weight.
	for v := 0; v < n; v++ {
		rev := nodeArc[v] ^ 1
		g.SetCap(rev, g.ResidualCap(rev)-weight[v])
	}
	return feasible
}

// AntichainBrute computes the maximum-weight antichain by exhaustive search
// over subsets. Exposed for differential testing only; n must be small.
func AntichainBrute(n int, succ [][]int, weight []int64) int64 {
	if n > 22 {
		panic("graph: AntichainBrute limited to 22 nodes")
	}
	// reach[u] = bitmask of nodes reachable from u (excluding u).
	reach := make([]uint32, n)
	order := topoOrder(n, succ)
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		for _, v := range succ[u] {
			reach[u] |= 1<<uint(v) | reach[v]
		}
	}
	best := int64(0)
	var rec func(v int, mask uint32, w int64)
	rec = func(v int, mask uint32, w int64) {
		if w > best {
			best = w
		}
		for u := v; u < n; u++ {
			if weight[u] == 0 {
				continue
			}
			// u must be incomparable with everything chosen so far.
			if mask&(1<<uint(u)) != 0 {
				continue
			}
			conflict := false
			for c := 0; c < n; c++ {
				if mask&(1<<uint(c)) == 0 {
					continue
				}
				if reach[c]&(1<<uint(u)) != 0 || reach[u]&(1<<uint(c)) != 0 {
					conflict = true
					break
				}
			}
			if conflict {
				continue
			}
			rec(u+1, mask|1<<uint(u), w+weight[u])
		}
	}
	rec(0, 0, 0)
	return best
}

// topoOrder returns a topological order of a DAG given successor lists.
func topoOrder(n int, succ [][]int) []int {
	indeg := make([]int, n)
	for _, vs := range succ {
		for _, v := range vs {
			indeg[v]++
		}
	}
	order := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			order = append(order, v)
		}
	}
	for i := 0; i < len(order); i++ {
		for _, v := range succ[order[i]] {
			indeg[v]--
			if indeg[v] == 0 {
				order = append(order, v)
			}
		}
	}
	if len(order) != n {
		panic("graph: cycle in DAG")
	}
	return order
}
