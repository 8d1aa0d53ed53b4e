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
// Which maximum-weight antichain comes back is fixed: the one whose up-set
// (its members plus every node they reach) is least. After the reduction, the
// residual set X reachable from the sink is the smallest sink side of a
// minimum cut. Every arc keeps near-Inf residual capacity in its original
// direction, so X is closed under successors; the solver returns the weighted
// nodes whose out-half is in X and whose in-half is not, and because X is the
// smallest such set it holds exactly their out-halves and every node below
// them. Whether one antichain's up-set contains another's depends only on
// which weighted nodes reach which, so any subgraph that keeps that relation
// selects the same set.
//
// The network is therefore built on the between region alone: the weighted
// nodes plus every node on a path from one weighted node to another (see
// between). Every such path runs through kept nodes only and a subgraph adds
// no path, so the region keeps the relation exactly, and the set, its weight
// and every Dscale decision are those of the whole-DAG network, at a fraction
// of its size (in a Dscale round, a few percent of the circuit).
//
// succ[v] lists the arcs out of node v and node maps an arc to its head, so
// a caller passes its own adjacency as it stands (Dscale passes the timing
// engine's consumer table with a connection's gate as its head); the graph
// must be a DAG. Returns the selected node indices (ascending) and their
// total weight.
func MaxWeightAntichain[E any](n int, succ [][]E, node func(E) int, weight []int64) ([]int, int64) {
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
	m, rsucc, rweight := between(sc, n, succ, node, weight)
	feasible := sc.antichainNetwork(m, rsucc, rweight)

	// Phase 2: reduce the feasible flow to its minimum with a max-flow run
	// from t to s over the residual network.
	g, s, t := &sc.net, 2*m, 2*m+1
	reduced := g.MaxFlowDinic(t, s)
	minFlow := feasible - reduced

	// Extract the antichain from the min cut: X is the t-side; a weighted
	// node whose arc crosses from outside X into X is pinned at its lower
	// bound and no other such node is reachable from it. Region numbers
	// ascend with the caller's, so the set comes out ascending.
	inX := g.ReachableFrom(t)
	var set []int
	var got int64
	for v := 0; v < m; v++ {
		if rweight[v] > 0 && inX[2*v+1] && !inX[2*v] {
			set = append(set, sc.orig[v])
			got = got + rweight[v]
		}
	}
	if got != minFlow {
		// The duality argument guarantees equality; failing it means the
		// network construction is broken, which tests guard against.
		panic("graph: antichain weight does not match min-flow value")
	}
	return set, got
}

// Node marks of between's depth-first pass.
const (
	visited uint8 = 1 << iota // a weighted node, or reached from one along an arc
	reaches                   // reaches a weighted node along at least one arc
	kept                      // in the between region
)

// between cuts the DAG down to MaxWeightAntichain's between region: the
// weighted nodes plus every node that lies on a path from one weighted node
// to another. It returns the region's size m and its adjacency and weights
// renumbered 0..m-1 in ascending original order (sc.orig maps back), each
// successor list restricted to kept heads in its original element order.
// All of it lives in sc's buffers.
//
// One depth-first pass from the weighted nodes visits every node reachable
// from one of them, and marks a node on the way back when one of its
// successors is weighted or marked: in a DAG a successor seen again has
// already finished, so its mark is final. A visited node is in the region
// when it is weighted or marked; a node the pass never visits is reached
// from no weighted node and is not.
func between[E any](sc *scratch, n int, succ [][]E, node func(E) int, weight []int64) (int, [][]int, []int64) {
	sc.mark = grow(sc.mark, n)
	mark := sc.mark
	clear(mark)
	stack := sc.stack[:0]
	for r := 0; r < n; r++ {
		if weight[r] == 0 || mark[r]&visited != 0 {
			continue
		}
		mark[r] |= visited
		stack = append(stack, frame{node: int32(r)})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			u := f.node
			if int(f.next) == len(succ[u]) {
				stack = stack[:len(stack)-1]
				if len(stack) > 0 && (weight[u] > 0 || mark[u]&reaches != 0) {
					mark[stack[len(stack)-1].node] |= reaches
				}
				continue
			}
			v := node(succ[u][f.next])
			f.next++
			switch {
			case mark[v]&visited == 0:
				mark[v] |= visited
				stack = append(stack, frame{node: int32(v)})
			case weight[v] > 0 || mark[v]&reaches != 0:
				mark[u] |= reaches
			}
		}
	}
	sc.stack = stack

	// Renumber the region in ascending original order. Its adjacency holds
	// at most the kept nodes' arcs, so the flat list is sized once and the
	// per-node windows into it stay valid.
	sc.region = grow(sc.region, n)
	orig, arcs := sc.orig[:0], 0
	for v := 0; v < n; v++ {
		if weight[v] > 0 || mark[v]&reaches != 0 {
			mark[v] |= kept
			sc.region[v] = int32(len(orig))
			orig = append(orig, v)
			arcs += len(succ[v])
		}
	}
	m := len(orig)
	sc.orig = orig
	sc.rweight, sc.rsucc = grow(sc.rweight, m), grow(sc.rsucc, m)
	adj := grow(sc.adj, arcs)[:0]
	for k, u := range orig {
		sc.rweight[k] = weight[u]
		start := len(adj)
		for _, e := range succ[u] {
			if v := node(e); mark[v]&kept != 0 {
				adj = append(adj, int(sc.region[v]))
			}
		}
		sc.rsucc[k] = adj[start:len(adj):len(adj)]
	}
	sc.adj = adj
	return m, sc.rsucc, sc.rweight
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
