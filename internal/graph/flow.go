// Package graph implements the two combinatorial engines the paper relies
// on:
//
//   - the maximum-weight independent set on a transitive graph (Kagaris &
//     Tragoudas [3]) that Dscale uses to pick a set of gates that can be
//     scaled simultaneously without two of them sharing a timing path, and
//   - the minimum-weight separator set, a max-flow/min-cut (Cormen et al.
//     [2]), that Gscale uses to pick the cheapest set of gates whose resizing
//     speeds up every critical path into the time-critical boundary.
//
// Both run on one max-flow solver, Dinic's algorithm. The paper computes the
// separator with Edmonds–Karp; the cut does not depend on the solver,
// because the set of nodes reachable from the source in the residual network
// is the same for every maximum flow. Capacities are int64; callers scale
// float weights before building networks.
//
// Both read the caller's adjacency in place: an arc list per node and a
// function from an arc to its head, so Dscale and Gscale pass the timing
// engine's consumer table as it stands. A weight per node picks the nodes
// that count: the antichain's candidates, the separator's members.
//
// The independent set is a maximum-weight antichain, found as a min flow
// (the weighted Dilworth theorem) on a node-split network. Its min cut picks,
// among all maximum-weight antichains, the one whose up-set (its members
// plus every node they reach) is least, and that choice depends only on
// which weighted nodes reach which. So the network is built on the between
// region alone, the weighted nodes and the nodes on paths between them,
// which in a Dscale round is a few percent of the circuit.
package graph

import (
	"math"
	"sync"
)

// Inf is the capacity used for uncuttable arcs. It is large enough to
// dominate any realistic weight sum yet leaves headroom against overflow.
const Inf int64 = math.MaxInt64 / 8

// arc is half of a residual arc pair. arcs[i^1] is the reverse arc of
// arcs[i].
type arc struct {
	to  int
	cap int64 // remaining residual capacity
}

// Network is a flow network with residual bookkeeping. The solvers draw one
// from scratchPool and reset it to their node count.
type Network struct {
	n    int
	arcs []arc
	head [][]int32 // per node, indices into arcs
	// Scratch retained across max-flow and reachability runs, and across
	// reset, so a pooled network searches without allocating. level holds
	// Dinic's BFS levels; queue is the BFS queue or the DFS stack.
	level []int32
	iter  []int32
	queue []int32
	seen  []bool
}

// reset empties the network to n nodes and no arcs, keeping the capacity of
// the arc list, of every node's adjacency and of the scratch buffers.
func (g *Network) reset(n int) {
	g.n = n
	g.arcs = g.arcs[:0]
	if cap(g.head) < n {
		// Extend over the full capacity so the adjacency slices parked
		// beyond the old length are kept.
		g.head = append(g.head[:cap(g.head)], make([][]int32, n-cap(g.head))...)
	}
	g.head = g.head[:n]
	for u := range g.head {
		g.head[u] = g.head[u][:0]
	}
}

// AddArc adds a directed arc u→v with the given capacity and returns its arc
// id, usable with Flow and ResidualCap. A reverse arc of capacity 0 is added
// automatically.
func (g *Network) AddArc(u, v int, capacity int64) int {
	id := len(g.arcs)
	g.arcs = append(g.arcs, arc{to: v, cap: capacity}, arc{to: u, cap: 0})
	g.head[u] = append(g.head[u], int32(id))
	g.head[v] = append(g.head[v], int32(id+1))
	return id
}

// ResidualCap returns the remaining capacity of arc id.
func (g *Network) ResidualCap(id int) int64 { return g.arcs[id].cap }

// Flow returns the flow currently pushed through arc id, assuming the arc was
// created with AddArc (flow equals the reverse arc's residual capacity).
func (g *Network) Flow(id int) int64 { return g.arcs[id^1].cap }

// SetCap overwrites the residual capacity of arc id. It is used by the
// min-flow construction to seed a feasible flow.
func (g *Network) SetCap(id int, c int64) { g.arcs[id].cap = c }

// push augments flow along arc id by f (decreasing its residual capacity and
// increasing the reverse arc's).
func (g *Network) push(id int, f int64) {
	g.arcs[id].cap -= f
	g.arcs[id^1].cap += f
}

// MaxFlowDinic computes the maximum s→t flow with Dinic's algorithm. A flow
// that reaches Inf is reported as exactly Inf: every cut then crosses an Inf
// arc (or finite arcs summing past it), and stopping there keeps further Inf
// augmenting paths from wrapping the int64 sum negative.
func (g *Network) MaxFlowDinic(s, t int) int64 {
	if s == t {
		return 0
	}
	g.level = grow(g.level, g.n)
	g.iter = grow(g.iter, g.n)
	var total int64
	for g.bfsLevel(s, t) {
		clear(g.iter)
		for {
			f := g.dfsBlock(s, t, Inf)
			if f == 0 {
				break
			}
			total += f
			if total >= Inf {
				return Inf
			}
		}
	}
	return total
}

// bfsLevel labels nodes with their BFS distance from s in the residual
// network (-1 for unlabelled) and reports whether t is reachable. It returns
// the moment it labels t. Nodes pop in nondecreasing distance, so by then
// every node closer to s than t is labelled; the nodes left unlabelled lie at
// t's distance or beyond, cannot be on a shortest augmenting path, and
// dfsBlock would find nothing behind them. The pushes, and so the residual
// network and its min cut, are those of a full BFS.
func (g *Network) bfsLevel(s, t int) bool {
	for i := range g.level {
		g.level[i] = -1
	}
	g.level[s] = 0
	g.queue = append(g.queue[:0], int32(s))
	for qi := 0; qi < len(g.queue); qi++ {
		u := g.queue[qi]
		for _, id := range g.head[u] {
			a := g.arcs[id]
			if a.cap > 0 && g.level[a.to] < 0 {
				g.level[a.to] = g.level[u] + 1
				if a.to == t {
					return true
				}
				g.queue = append(g.queue, int32(a.to))
			}
		}
	}
	return false
}

func (g *Network) dfsBlock(u, t int, limit int64) int64 {
	if u == t {
		return limit
	}
	for ; g.iter[u] < int32(len(g.head[u])); g.iter[u]++ {
		id := g.head[u][g.iter[u]]
		a := g.arcs[id]
		if a.cap <= 0 || g.level[a.to] != g.level[u]+1 {
			continue
		}
		f := limit
		if a.cap < f {
			f = a.cap
		}
		if got := g.dfsBlock(a.to, t, f); got > 0 {
			g.push(int(id), got)
			return got
		}
	}
	return 0
}

// ReachableFrom returns the set of nodes reachable from src through arcs with
// positive residual capacity — the source side of a minimum cut after a
// max-flow run. The slice belongs to the network: the next ReachableFrom call
// on it overwrites the contents.
func (g *Network) ReachableFrom(src int) []bool {
	g.seen = grow(g.seen, g.n)
	seen := g.seen
	clear(seen)
	seen[src] = true
	stack := append(g.queue[:0], int32(src))
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, id := range g.head[u] {
			a := g.arcs[id]
			if a.cap > 0 && !seen[a.to] {
				seen[a.to] = true
				stack = append(stack, int32(a.to))
			}
		}
	}
	g.queue = stack
	return seen
}

// grow returns s resized to n elements, reallocating only when its capacity
// is short. The contents are unspecified; callers initialise what they read.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// scratch is one solver call's working state: the node-split network, the
// per-node arc and path tables that build it, and MaxWeightAntichain's
// between region. MaxWeightAntichain and MinVertexCut borrow it from
// scratchPool, so a steady stream of solves reuses the same buffers instead
// of allocating a fresh network each time.
type scratch struct {
	net                     Network
	nodeArc, upArc, downArc []int
	pathUp, pathDown        []int
	srcArc, sinkArc         []int

	// The between region: per-node marks and the depth-first stack over
	// the caller's numbering, the caller's node → region number (valid for
	// kept nodes) and back, and the region's weights and successor lists
	// (windows into adj).
	mark    []uint8
	stack   []frame
	region  []int32
	orig    []int
	rweight []int64
	rsucc   [][]int
	adj     []int
}

// frame is a depth-first stack entry: a node and the index of the next
// successor to examine.
type frame struct{ node, next int32 }

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}
