package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

// randDAG builds a random DAG on n nodes where edges always point from lower
// to higher index, so acyclicity holds by construction.
func randDAG(rng *rand.Rand, n int, p float64) [][]int {
	succ := make([][]int, n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				succ[u] = append(succ[u], v)
			}
		}
	}
	return succ
}

func isAntichain(n int, succ [][]int, set []int) bool {
	reach := make([][]bool, n)
	order := topoOrder(n, succ)
	for i := range reach {
		reach[i] = make([]bool, n)
	}
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		for _, v := range succ[u] {
			reach[u][v] = true
			for w := 0; w < n; w++ {
				if reach[v][w] {
					reach[u][w] = true
				}
			}
		}
	}
	for i, a := range set {
		for _, b := range set[i+1:] {
			if reach[a][b] || reach[b][a] {
				return false
			}
		}
	}
	return true
}

// identity is the head of an arc given as its head node.
func identity(v int) int { return v }

// sources marks the nodes of the DAG that no arc enters: MinVertexCut's
// entries when every node is a member.
func sources(n int, succ [][]int) []bool {
	src := make([]bool, n)
	for v := range src {
		src[v] = true
	}
	for _, vs := range succ {
		for _, v := range vs {
			src[v] = false
		}
	}
	return src
}

func TestMaxWeightAntichainSmallChain(t *testing.T) {
	// 0 -> 1 -> 2: a pure chain; the best antichain is the heaviest node.
	succ := [][]int{{1}, {2}, {}}
	set, w := MaxWeightAntichain(3, succ, identity, []int64{3, 5, 4})
	if w != 5 || len(set) != 1 || set[0] != 1 {
		t.Fatalf("chain antichain = %v weight %d, want [1] weight 5", set, w)
	}
}

func TestMaxWeightAntichainParallel(t *testing.T) {
	// Two independent chains: best takes the max of each chain.
	succ := [][]int{{1}, {}, {3}, {}}
	set, w := MaxWeightAntichain(4, succ, identity, []int64{3, 5, 4, 1})
	if w != 9 {
		t.Fatalf("parallel antichain weight = %d (%v), want 9", w, set)
	}
	if !isAntichain(4, succ, set) {
		t.Fatalf("result %v is not an antichain", set)
	}
}

func TestMaxWeightAntichainDiamond(t *testing.T) {
	// Diamond 0 -> {1,2} -> 3; 1 and 2 are incomparable.
	succ := [][]int{{1, 2}, {3}, {3}, {}}
	set, w := MaxWeightAntichain(4, succ, identity, []int64{1, 4, 4, 7})
	if w != 8 {
		t.Fatalf("diamond antichain weight = %d (%v), want 8", w, set)
	}
	if !isAntichain(4, succ, set) {
		t.Fatalf("result %v is not an antichain", set)
	}
}

func TestMaxWeightAntichainNoCandidates(t *testing.T) {
	succ := [][]int{{1}, {}}
	set, w := MaxWeightAntichain(2, succ, identity, []int64{0, 0})
	if len(set) != 0 || w != 0 {
		t.Fatalf("expected empty result, got %v weight %d", set, w)
	}
}

func TestMaxWeightAntichainEmptyGraph(t *testing.T) {
	set, w := MaxWeightAntichain(0, nil, identity, nil)
	if len(set) != 0 || w != 0 {
		t.Fatalf("expected empty result, got %v weight %d", set, w)
	}
}

func TestMaxWeightAntichainIsolatedNodes(t *testing.T) {
	// No edges at all: every candidate is selected.
	succ := make([][]int, 5)
	weights := []int64{2, 0, 7, 1, 3}
	set, w := MaxWeightAntichain(5, succ, identity, weights)
	if w != 13 || len(set) != 4 {
		t.Fatalf("isolated antichain = %v weight %d, want all weighted nodes, 13", set, w)
	}
}

func TestMaxWeightAntichainVsBruteRandom(t *testing.T) {
	type conn struct{ Gate, Pin int } // a consumer-table arc, shaped like netlist.Conn
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(11)
		succ := randDAG(rng, n, 0.25)
		weight := make([]int64, n)
		for i := range weight {
			if rng.Float64() < 0.7 {
				weight[i] = int64(rng.Intn(20))
			}
		}
		set, got := MaxWeightAntichain(n, succ, identity, weight)
		want, _ := maxAntichainUpSets(n, reachMasks(n, succ), weight)
		if got != want {
			t.Fatalf("trial %d: flow antichain weight %d != brute %d (n=%d succ=%v w=%v)",
				trial, got, want, n, succ, weight)
		}
		// The same DAG as a consumer table with the gate as the arc's head.
		conns := make([][]conn, n)
		for u, vs := range succ {
			for pin, v := range vs {
				conns[u] = append(conns[u], conn{Gate: v, Pin: pin})
			}
		}
		cset, cgot := MaxWeightAntichain(n, conns, func(c conn) int { return c.Gate }, weight)
		if cgot != got || !slices.Equal(cset, set) {
			t.Fatalf("trial %d: through struct arcs %v weight %d, through node lists %v weight %d",
				trial, cset, cgot, set, got)
		}
		if !isAntichain(n, succ, set) {
			t.Fatalf("trial %d: result %v is not an antichain", trial, set)
		}
		for _, v := range set {
			if weight[v] == 0 {
				t.Fatalf("trial %d: zero-weight node %d selected", trial, v)
			}
		}
	}
}

func TestMaxWeightAntichainDeepChainStress(t *testing.T) {
	// A long chain with heavy middle: exactly one node may be chosen.
	n := 2000
	succ := make([][]int, n)
	weight := make([]int64, n)
	for i := 0; i < n-1; i++ {
		succ[i] = []int{i + 1}
	}
	for i := range weight {
		weight[i] = int64(i % 97)
	}
	set, w := MaxWeightAntichain(n, succ, identity, weight)
	if len(set) != 1 || w != 96 {
		t.Fatalf("deep chain: got %d nodes weight %d, want 1 node weight 96", len(set), w)
	}
}

// maxWeightAntichainFull is MaxWeightAntichain on the node-split network of
// the whole DAG, before the solver cut it down to the between region. It is
// kept as the reference the region must match.
func maxWeightAntichainFull(n int, succ [][]int, weight []int64) ([]int, int64) {
	total := int64(0)
	for _, w := range weight {
		total += w
	}
	if n == 0 || total == 0 {
		return nil, 0
	}
	var sc scratch
	feasible := sc.antichainNetwork(n, succ, weight)
	g, s, t := &sc.net, 2*n, 2*n+1
	minFlow := feasible - g.MaxFlowDinic(t, s)
	inX := g.ReachableFrom(t)
	var set []int
	var got int64
	for v := 0; v < n; v++ {
		if weight[v] > 0 && inX[2*v+1] && !inX[2*v] {
			set = append(set, v)
			got += weight[v]
		}
	}
	if got != minFlow {
		panic("graph: antichain weight does not match min-flow value")
	}
	return set, got
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

// reachMasks returns, per node of a DAG on at most 32 nodes, the bit mask of
// the nodes it reaches along at least one arc.
func reachMasks(n int, succ [][]int) []uint32 {
	reach := make([]uint32, n)
	order := topoOrder(n, succ)
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		for _, v := range succ[u] {
			reach[u] |= 1<<uint(v) | reach[v]
		}
	}
	return reach
}

// maxAntichainUpSets enumerates every antichain of positive-weight nodes and
// returns the maximum weight and the up-set (the members plus every node
// they reach, as a bit mask) of each antichain of that weight.
func maxAntichainUpSets(n int, reach []uint32, weight []int64) (int64, []uint32) {
	best := int64(0)
	ups := []uint32{0}
	var rec func(from int, chosen, up uint32, w int64)
	rec = func(from int, chosen, up uint32, w int64) {
		switch {
		case w > best:
			best, ups = w, append(ups[:0], up)
		case w == best:
			ups = append(ups, up)
		}
		for u := from; u < n; u++ {
			// u joins only if no member reaches it and it reaches no member.
			if weight[u] == 0 || up&(1<<uint(u)) != 0 || reach[u]&chosen != 0 {
				continue
			}
			rec(u+1, chosen|1<<uint(u), up|1<<uint(u)|reach[u], w+weight[u])
		}
	}
	rec(0, 0, 0, 0)
	return best, ups
}

// TestMaxWeightAntichainLeastUpSet pins which maximum-weight antichain the
// solver returns: the one whose up-set is least, contained in the up-set of
// every other antichain of that weight. The between region relies on it,
// because up-set containment depends only on which weighted nodes reach
// which. Weights from {0, 1, 2, 3} make ties common.
func TestMaxWeightAntichainLeastUpSet(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	ties := 0
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(15)
		succ := randDAG(rng, n, []float64{0.05, 0.15, 0.3, 0.5, 0.8}[trial%5])
		weight := make([]int64, n)
		for i := range weight {
			weight[i] = int64(rng.Intn(4))
		}
		reach := reachMasks(n, succ)
		best, ups := maxAntichainUpSets(n, reach, weight)
		if len(ups) > 1 {
			ties++
		}
		set, got := MaxWeightAntichain(n, succ, identity, weight)
		if got != best {
			t.Fatalf("trial %d: weight %d, brute force %d (succ=%v w=%v)", trial, got, best, succ, weight)
		}
		var up uint32
		for _, v := range set {
			if weight[v] == 0 {
				t.Fatalf("trial %d: zero-weight node %d selected", trial, v)
			}
			up |= 1<<uint(v) | reach[v]
		}
		if !isAntichain(n, succ, set) {
			t.Fatalf("trial %d: result %v is not an antichain", trial, set)
		}
		for _, other := range ups {
			if up&^other != 0 {
				t.Fatalf("trial %d: set %v has up-set %b, not inside %b of another antichain of weight %d (succ=%v w=%v)",
					trial, set, up, other, best, succ, weight)
			}
		}
	}
	if ties < 1000 {
		t.Fatalf("only %d of 3000 inputs had tied maximum-weight antichains", ties)
	}
}

// randCircuitDAG builds a random DAG shaped like a gate netlist: each node
// feeds up to deg later nodes, each within a short window or, at
// probability global, anywhere after it, and a node may be listed twice as a
// successor (a gate that reads the same signal on two pins).
func randCircuitDAG(rng *rand.Rand, n, deg int, global float64) [][]int {
	succ := make([][]int, n)
	for u := 0; u < n-1; u++ {
		for k := rng.Intn(deg + 1); k > 0; k-- {
			span := n - u - 1
			if rng.Float64() >= global {
				span = min(span, 16)
			}
			v := u + 1 + rng.Intn(span)
			succ[u] = append(succ[u], v)
			if rng.Intn(20) == 0 {
				succ[u] = append(succ[u], v)
			}
		}
	}
	return succ
}

// TestMaxWeightAntichainMatchesFullNetwork holds the solver to the whole-DAG
// network at Dscale's scale: 100 to 1,000 nodes with 2 to 10% of them
// weighted from a small range, where the between region is a small share of
// the graph. Sets and weights must be identical.
func TestMaxWeightAntichainMatchesFullNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for trial := 0; trial < 200; trial++ {
		n := 100 + rng.Intn(901)
		succ := randCircuitDAG(rng, n, 1+rng.Intn(4), []float64{0.01, 0.05, 0.25}[trial%3])
		share := 0.02 + 0.08*rng.Float64()
		weight := make([]int64, n)
		for v := range weight {
			if rng.Float64() < share {
				weight[v] = 1 + int64(rng.Intn(4))
			}
		}
		set, got := MaxWeightAntichain(n, succ, identity, weight)
		wantSet, want := maxWeightAntichainFull(n, succ, weight)
		if got != want || !slices.Equal(set, wantSet) {
			t.Fatalf("trial %d (n=%d): %v weight %d, whole network %v weight %d", trial, n, set, got, wantSet, want)
		}
	}
}

func TestMinVertexCutSimple(t *testing.T) {
	// 0 -> 1 -> 2: cheapest separator is the lightest node.
	succ := [][]int{{1}, {2}, {}}
	cut, w, ok := MinVertexCut(3, succ, identity, []int64{5, 2, 9}, []bool{false, false, true})
	if !ok || w != 2 || len(cut) != 1 || cut[0] != 1 {
		t.Fatalf("cut = %v weight %d ok=%v, want [1] weight 2", cut, w, ok)
	}
}

func TestMinVertexCutParallelPaths(t *testing.T) {
	// Entry 0 fans out to 1 and 2, both reach exit 3. Cutting 0 or 3 alone
	// works; compare against cutting both middles.
	succ := [][]int{{1, 2}, {3}, {3}, {}}
	cut, w, ok := MinVertexCut(4, succ, identity, []int64{10, 4, 3, 10}, []bool{false, false, false, true})
	if !ok || w != 7 {
		t.Fatalf("cut = %v weight %d ok=%v, want middles weight 7", cut, w, ok)
	}
	if len(cut) != 2 || cut[0] != 1 || cut[1] != 2 {
		t.Fatalf("cut = %v, want [1 2]", cut)
	}
}

func TestMinVertexCutInfeasible(t *testing.T) {
	// Single path through an Inf node only.
	succ := [][]int{{1}, {2}, {}}
	_, _, ok := MinVertexCut(3, succ, identity, []int64{Inf, Inf, Inf}, []bool{false, false, true})
	if ok {
		t.Fatal("expected infeasible cut through Inf-only path")
	}
}

func TestMinVertexCutEntryIsExit(t *testing.T) {
	// A node that is both entry and exit must itself be cut.
	succ := [][]int{{}}
	cut, w, ok := MinVertexCut(1, succ, identity, []int64{6}, []bool{true})
	if !ok || w != 6 || len(cut) != 1 {
		t.Fatalf("cut = %v weight %d ok=%v, want [0] weight 6", cut, w, ok)
	}
}

func TestMinVertexCutVsBruteRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(9)
		succ := randDAG(rng, n, 0.3)
		weight := make([]int64, n)
		isEntry := sources(n, succ)
		isExit := make([]bool, n)
		for i := range weight {
			weight[i] = int64(1 + rng.Intn(15))
		}
		// An exit among the second half.
		isExit[n/2+rng.Intn(n-n/2)] = true
		cut, got, ok := MinVertexCut(n, succ, identity, weight, isExit)
		want := vertexCutBrute(n, succ, weight, isEntry, isExit)
		if !ok {
			if want < Inf {
				t.Fatalf("trial %d: reported infeasible but brute found %d", trial, want)
			}
			continue
		}
		if got != want {
			t.Fatalf("trial %d: cut weight %d != brute %d (succ=%v w=%v entry=%v exit=%v)",
				trial, got, want, succ, weight, isEntry, isExit)
		}
		// The reported cut must actually disconnect entries from exits.
		mask := 0
		for _, v := range cut {
			mask |= 1 << uint(v)
		}
		if !cutsAll(n, succ, isEntry, isExit, mask) {
			t.Fatalf("trial %d: cut %v does not separate", trial, cut)
		}
	}
}

// TestMinVertexCutManyInfChains is the Gscale overflow regression: eight
// parallel entry→exit chains whose every node weighs Inf. Each chain is an
// augmenting path of capacity Inf, so an unsaturated int64 flow sum wraps
// negative past the seventh; the cut must still be reported infeasible.
func TestMinVertexCutManyInfChains(t *testing.T) {
	for _, chains := range []int{1, 7, 8, 9, 16} {
		const length = 3
		n := chains * length
		succ := make([][]int, n)
		weight := make([]int64, n)
		isExit := make([]bool, n)
		for c := 0; c < chains; c++ {
			for k := 0; k < length; k++ {
				v := c*length + k
				weight[v] = Inf
				if k+1 < length {
					succ[v] = []int{v + 1}
				}
			}
			isExit[c*length+length-1] = true
		}
		cut, flow, ok := MinVertexCut(n, succ, identity, weight, isExit)
		if ok || cut != nil || flow != Inf {
			t.Fatalf("%d Inf chains: cut=%v flow=%d ok=%v, want no cut, flow Inf, ok false", chains, cut, flow, ok)
		}
	}
}

// TestMaxFlowDinicSaturatesAtInf pins the saturation the separator relies
// on: however many Inf paths run in parallel, the flow reads exactly Inf.
func TestMaxFlowDinicSaturatesAtInf(t *testing.T) {
	build := func(paths int) *Network {
		g := newNetwork(paths + 2)
		for p := 0; p < paths; p++ {
			g.AddArc(0, p+2, Inf)
			g.AddArc(p+2, 1, Inf)
		}
		g.AddArc(0, 1, 5) // a finite arc alongside
		return g
	}
	for _, paths := range []int{8, 9, 20} {
		if got := build(paths).MaxFlowDinic(0, 1); got != Inf {
			t.Errorf("Dinic over %d Inf paths = %d, want Inf", paths, got)
		}
	}
}

// TestMinVertexCutVsBruteWithInf is the brute-force differential on graphs
// where some nodes — sometimes all of them — weigh Inf, the shape Gscale
// builds when gates cannot be upsized within the area budget.
func TestMinVertexCutVsBruteWithInf(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(12)
		succ := randDAG(rng, n, 0.3)
		infShare := rng.Float64()
		weight := make([]int64, n)
		isEntry := sources(n, succ)
		isExit := make([]bool, n)
		for i := range weight {
			weight[i] = int64(1 + rng.Intn(15))
			if rng.Float64() < infShare {
				weight[i] = Inf
			}
		}
		for i := 0; i < n; i++ {
			isExit[i] = i >= n/2 && rng.Intn(2) == 0
		}
		cut, got, ok := MinVertexCut(n, succ, identity, weight, isExit)
		want := vertexCutBrute(n, succ, weight, isEntry, isExit)
		if !ok {
			if want < Inf || got != Inf {
				t.Fatalf("trial %d: infeasible with flow %d, brute found %d (succ=%v w=%v entry=%v exit=%v)",
					trial, got, want, succ, weight, isEntry, isExit)
			}
			continue
		}
		if got != want {
			t.Fatalf("trial %d: cut weight %d != brute %d (succ=%v w=%v entry=%v exit=%v)",
				trial, got, want, succ, weight, isEntry, isExit)
		}
		mask := 0
		for _, v := range cut {
			mask |= 1 << uint(v)
		}
		if !cutsAll(n, succ, isEntry, isExit, mask) {
			t.Fatalf("trial %d: cut %v does not separate", trial, cut)
		}
	}
}

// TestMinVertexCutMemberMask is the brute-force differential for the member
// mask: on random DAGs only a random subset of the nodes weighs anything, an
// Inf share of them included, and exits fall on members and non-members
// alike. The cut must be the brute-force optimum of the subgraph the members
// induce, with that subgraph's sources as entries and its exits as exits,
// and must name members only.
func TestMinVertexCutMemberMask(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(16)
		succ := randDAG(rng, n, 0.25)
		memberShare, infShare := rng.Float64(), rng.Float64()/2
		weight := make([]int64, n)
		isExit := make([]bool, n)
		for v := range weight {
			if rng.Float64() < memberShare {
				weight[v] = int64(1 + rng.Intn(15))
				if rng.Float64() < infShare {
					weight[v] = Inf
				}
			}
			isExit[v] = rng.Intn(3) == 0
		}
		// The induced subgraph, members renumbered in ascending order.
		var members []int
		idx := make([]int, n)
		for v, w := range weight {
			idx[v] = -1
			if w > 0 {
				idx[v] = len(members)
				members = append(members, v)
			}
		}
		m := len(members)
		sub := make([][]int, m)
		subW := make([]int64, m)
		subExit := make([]bool, m)
		for k, u := range members {
			subW[k], subExit[k] = weight[u], isExit[u]
			for _, v := range succ[u] {
				if idx[v] >= 0 {
					sub[k] = append(sub[k], idx[v])
				}
			}
		}
		want := vertexCutBrute(m, sub, subW, sources(m, sub), subExit)
		cut, got, ok := MinVertexCut(n, succ, identity, weight, isExit)
		if !ok {
			if want < Inf || got != Inf {
				t.Fatalf("trial %d: infeasible with flow %d, brute found %d (succ=%v w=%v exit=%v)",
					trial, got, want, succ, weight, isExit)
			}
			continue
		}
		if got != want {
			t.Fatalf("trial %d: cut weight %d != brute %d (succ=%v w=%v exit=%v)", trial, got, want, succ, weight, isExit)
		}
		mask := 0
		for _, v := range cut {
			if idx[v] < 0 {
				t.Fatalf("trial %d: cut %v names non-member %d", trial, cut, v)
			}
			mask |= 1 << uint(idx[v])
		}
		if !cutsAll(m, sub, sources(m, sub), subExit, mask) {
			t.Fatalf("trial %d: cut %v does not separate the members", trial, cut)
		}
	}
}

// vertexCutBrute exhaustively finds the minimum-weight vertex cut for
// differential testing; n must be small. Cut weights saturate at Inf, so Inf
// means no finite-weight cut exists.
func vertexCutBrute(n int, succ [][]int, weight []int64, isEntry, isExit []bool) int64 {
	if n > 20 {
		panic("graph: vertexCutBrute limited to 20 nodes")
	}
	best := Inf
	for mask := 0; mask < 1<<uint(n); mask++ {
		var w int64
		for v := 0; v < n; v++ {
			if mask>>uint(v)&1 == 1 {
				w = min(w+weight[v], Inf) // saturate like the max flow does
			}
		}
		if w >= best {
			continue
		}
		if cutsAll(n, succ, isEntry, isExit, mask) {
			best = w
		}
	}
	return best
}

// cutsAll reports whether removing the masked nodes disconnects every
// entry→exit path.
func cutsAll(n int, succ [][]int, isEntry, isExit []bool, mask int) bool {
	seen := make([]bool, n)
	var stack []int
	for v := 0; v < n; v++ {
		if isEntry[v] && mask>>uint(v)&1 == 0 {
			seen[v] = true
			stack = append(stack, v)
		}
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if isExit[u] {
			return false
		}
		for _, v := range succ[u] {
			if !seen[v] && mask>>uint(v)&1 == 0 {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return true
}

// newNetwork creates a network with n nodes and no arcs.
func newNetwork(n int) *Network {
	g := new(Network)
	g.reset(n)
	return g
}

// randNetwork builds a random flow network from seed: 4 to 13 nodes and up
// to 3n arcs of capacity 1 to 30. The same seed builds the same network.
func randNetwork(seed int64) (*Network, int) {
	n := 4 + rand.New(rand.NewSource(seed)).Intn(10)
	g := newNetwork(n)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 3*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddArc(u, v, int64(1+rng.Intn(30)))
		}
	}
	return g, n
}

// bruteCut is the cheapest s–t cut of g by enumeration: the least total
// capacity of the arcs leaving a node set that holds s but not t. g must not
// have run a flow yet, so every forward arc still carries its capacity.
func bruteCut(g *Network, s, t int) int64 {
	best := Inf
	for mask := 0; mask < 1<<uint(g.n); mask++ {
		if mask>>uint(s)&1 == 0 || mask>>uint(t)&1 == 1 {
			continue
		}
		var c int64
		for id := 0; id < len(g.arcs); id += 2 {
			u, v := g.arcs[id+1].to, g.arcs[id].to
			if mask>>uint(u)&1 == 1 && mask>>uint(v)&1 == 0 {
				c += g.arcs[id].cap
			}
		}
		best = min(best, c)
	}
	return best
}

// TestMaxFlowDinicMatchesBruteCut holds the one max-flow solver to the
// max-flow/min-cut theorem: on random networks its flow equals the cheapest
// s–t cut over every node subset.
func TestMaxFlowDinicMatchesBruteCut(t *testing.T) {
	f := func(seed int64) bool {
		g, n := randNetwork(seed)
		want := bruteCut(g, 0, n-1)
		return g.MaxFlowDinic(0, n-1) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// bfsLevelUncut is bfsLevel without the cutoff at the sink: it labels every
// node reachable from src. It also returns how many nodes it labelled after
// the sink, the nodes the cutoff leaves unlabelled.
func bfsLevelUncut(g *Network, src, sink int) (bool, int) {
	for i := range g.level {
		g.level[i] = -1
	}
	g.level[src] = 0
	g.queue = append(g.queue[:0], int32(src))
	extra := 0
	for qi := 0; qi < len(g.queue); qi++ {
		u := g.queue[qi]
		for _, id := range g.head[u] {
			a := g.arcs[id]
			if a.cap > 0 && g.level[a.to] < 0 {
				if g.level[sink] >= 0 {
					extra++
				}
				g.level[a.to] = g.level[u] + 1
				g.queue = append(g.queue, int32(a.to))
			}
		}
	}
	return g.level[sink] >= 0, extra
}

// maxFlowDinicUncut is MaxFlowDinic on bfsLevelUncut, the reference for the
// level cutoff. It returns the flow and the nodes bfsLevelUncut labelled
// after the sink, summed over all phases.
func maxFlowDinicUncut(g *Network, src, sink int) (flow int64, extra int) {
	g.level = grow(g.level, g.n)
	g.iter = grow(g.iter, g.n)
	for {
		ok, e := bfsLevelUncut(g, src, sink)
		if !ok {
			return flow, extra
		}
		extra += e
		clear(g.iter)
		for {
			f := g.dfsBlock(src, sink, Inf)
			if f == 0 {
				break
			}
			flow += f
		}
	}
}

func cloneNetwork(g *Network) *Network {
	c := &Network{n: g.n, arcs: slices.Clone(g.arcs), head: make([][]int32, g.n)}
	for u := range g.head {
		c.head[u] = slices.Clone(g.head[u])
	}
	return c
}

// TestDinicLevelCutoffChangesNothing holds MaxFlowDinic, whose level BFS stops
// when it reaches the sink, to the uncut reference: after the run, every arc's
// residual capacity and the set of nodes reachable from the source must be
// identical — on random networks, and on the min-flow networks
// MaxWeightAntichain builds from random DAGs.
func TestDinicLevelCutoffChangesNothing(t *testing.T) {
	skipped := 0
	check := func(what string, cut, ref *Network, src, sink int) {
		t.Helper()
		fc := cut.MaxFlowDinic(src, sink)
		fr, extra := maxFlowDinicUncut(ref, src, sink)
		skipped += extra
		if fc != fr {
			t.Fatalf("%s: flow %d with the cutoff, %d without", what, fc, fr)
		}
		for id := range cut.arcs {
			if cut.arcs[id] != ref.arcs[id] {
				t.Fatalf("%s: arc %d is %+v with the cutoff, %+v without", what, id, cut.arcs[id], ref.arcs[id])
			}
		}
		if rc, rr := cut.ReachableFrom(src), ref.ReachableFrom(src); !slices.Equal(rc, rr) {
			t.Fatalf("%s: reachable set %v with the cutoff, %v without", what, rc, rr)
		}
	}
	for seed := int64(0); seed < 500; seed++ {
		cut, n := randNetwork(seed)
		ref, _ := randNetwork(seed)
		check(fmt.Sprintf("random network %d", seed), cut, ref, 0, n-1)
	}
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(60)
		succ := randDAG(rng, n, 0.1)
		weight := make([]int64, n)
		for i := range weight {
			if rng.Float64() < 0.7 {
				weight[i] = int64(rng.Intn(50))
			}
		}
		var sc scratch
		sc.antichainNetwork(n, succ, weight)
		// The antichain's max-flow runs from t = 2n+1 back to s = 2n.
		check(fmt.Sprintf("antichain network %d", trial), &sc.net, cloneNetwork(&sc.net), 2*n+1, 2*n)
	}
	if skipped == 0 {
		t.Fatal("no BFS labelled a node after the sink; the cutoff was never exercised")
	}
}

// solveCase is one input of the solver-reuse tests: a random DAG with
// antichain weights, and separator weights and exits on the same graph (the
// separator's entries are the DAG's sources).
type solveCase struct {
	n            int
	succ         [][]int
	weight, sepW []int64
	isExit       []bool
}

func randCase(rng *rand.Rand, n int) solveCase {
	c := solveCase{
		n:      n,
		succ:   randDAG(rng, n, min(0.3, 4/float64(n))),
		weight: make([]int64, n),
		sepW:   make([]int64, n),
		isExit: make([]bool, n),
	}
	for v := 0; v < n; v++ {
		if rng.Float64() < 0.7 {
			c.weight[v] = int64(rng.Intn(1000))
		}
		c.sepW[v] = int64(1 + rng.Intn(1000))
		if rng.Float64() < 0.02 {
			c.sepW[v] = Inf
		}
		c.isExit[v] = v >= n/2 && rng.Intn(4) == 0
	}
	c.isExit[n-1] = true
	return c
}

// solveAnswer is everything the two solvers return for one solveCase.
type solveAnswer struct {
	set    []int
	weight int64
	cut    []int
	cutW   int64
	ok     bool
}

func (c solveCase) solve() solveAnswer {
	var a solveAnswer
	a.set, a.weight = MaxWeightAntichain(c.n, c.succ, identity, c.weight)
	a.cut, a.cutW, a.ok = MinVertexCut(c.n, c.succ, identity, c.sepW, c.isExit)
	return a
}

// sparseCase is randCase with antichain weights on about share of the
// nodes, and on at least one, the shape of a Dscale round.
func sparseCase(rng *rand.Rand, n int, share float64) solveCase {
	c := randCase(rng, n)
	for v := range c.weight {
		c.weight[v] = 0
		if rng.Float64() < share {
			c.weight[v] = 1 + int64(rng.Intn(1000))
		}
	}
	c.weight[rng.Intn(n)] = 1 + int64(rng.Intn(1000))
	return c
}

// reuseCases are the inputs of TestSolverReuse: sizes alternate between a few
// hundred nodes and a few dozen, so the pooled networks grow and shrink, and
// the last eight weight only a few percent of their nodes, so the antichain
// solver's between region is a small share of the graph.
func reuseCases() []solveCase {
	rng := rand.New(rand.NewSource(17))
	cases := make([]solveCase, 24)
	for i := range cases {
		n := 2 + rng.Intn(40)
		if i%2 == 0 {
			n = 100 + rng.Intn(300)
		}
		if i < 16 {
			cases[i] = randCase(rng, n)
		} else {
			cases[i] = sparseCase(rng, n, 0.05)
		}
	}
	return cases
}

// solveTwice solves every case twice: first in order, then in reverse order
// rotated by half. A case's two solves sit at least len(cases)/2+1 calls
// apart and follow different predecessors, so state one call leaks into the
// next changes one of the two answers. It returns both passes' answers.
func solveTwice(cases []solveCase) (first, second []solveAnswer) {
	k := len(cases)
	first, second = make([]solveAnswer, k), make([]solveAnswer, k)
	for i, c := range cases {
		first[i] = c.solve()
	}
	for j := 0; j < k; j++ {
		i := ((k/2-1-j)%k + k) % k
		second[i] = cases[i].solve()
	}
	return first, second
}

// TestSolverReuse pins that the pooled solver scratch carries no state from
// one call to the next: each input, solved twice far apart in a sequence of
// growing and shrinking inputs, gets identical answers, and four goroutines
// running the sequence at once get the same answers as one.
func TestSolverReuse(t *testing.T) {
	cases := reuseCases()
	want, again := solveTwice(cases)
	for i := range cases {
		if !reflect.DeepEqual(want[i], again[i]) {
			t.Fatalf("case %d (n=%d): first solve %+v, second %+v", i, cases[i].n, want[i], again[i])
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			first, second := solveTwice(cases)
			for i := range cases {
				if !reflect.DeepEqual(first[i], want[i]) || !reflect.DeepEqual(second[i], want[i]) {
					t.Errorf("goroutine %d, case %d: answers %+v and %+v, want %+v", w, i, first[i], second[i], want[i])
				}
			}
		}(w)
	}
	wg.Wait()
}

// appendAllocs is the number of allocations appending k elements one at a
// time to a nil slice makes.
func appendAllocs(k int) int {
	var s []int
	n := 0
	for i := 0; i < k; i++ {
		if len(s) == cap(s) {
			n++
		}
		s = append(s, i)
	}
	return n
}

// TestSolverWarmCallAllocatesOnlyResult pins the pooled scratch: once the
// pool holds a network large enough, a solve allocates only the growth of
// the slice it returns.
func TestSolverWarmCallAllocatesOnlyResult(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops items at random")
	}
	// A collection empties the pool, so none may run while measuring.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	c := randCase(rand.New(rand.NewSource(5)), 500)
	a := c.solve()
	if len(a.set) == 0 || !a.ok || len(a.cut) == 0 {
		t.Fatalf("degenerate input: antichain %v, cut %v ok=%v", a.set, a.cut, a.ok)
	}
	got := testing.AllocsPerRun(20, func() { MaxWeightAntichain(c.n, c.succ, identity, c.weight) })
	if want := appendAllocs(len(a.set)); got != float64(want) {
		t.Errorf("MaxWeightAntichain: %v allocations per warm call, want %d (the growth of its %d-node set)", got, want, len(a.set))
	}
	got = testing.AllocsPerRun(20, func() { MinVertexCut(c.n, c.succ, identity, c.sepW, c.isExit) })
	if want := appendAllocs(len(a.cut)); got != float64(want) {
		t.Errorf("MinVertexCut: %v allocations per warm call, want %d (the growth of its %d-node cut)", got, want, len(a.cut))
	}
}

func BenchmarkMaxWeightAntichain(b *testing.B) {
	c := randCase(rand.New(rand.NewSource(1)), 1000)
	// Fill the pool first, so even -benchtime 1x measures a warm call.
	benchSet, _ = MaxWeightAntichain(c.n, c.succ, identity, c.weight)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSet, _ = MaxWeightAntichain(c.n, c.succ, identity, c.weight)
	}
}

// BenchmarkMaxWeightAntichainSparse is the shape of a Dscale round: about 5%
// of a 1,000-node DAG weighted.
func BenchmarkMaxWeightAntichainSparse(b *testing.B) {
	c := sparseCase(rand.New(rand.NewSource(1)), 1000, 0.05)
	benchSet, _ = MaxWeightAntichain(c.n, c.succ, identity, c.weight)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSet, _ = MaxWeightAntichain(c.n, c.succ, identity, c.weight)
	}
}

// BenchmarkMinVertexCut cuts a 1,000-node DAG whose every node is a member,
// so the entries are the DAG's sources. An Inf source that is also an exit
// admits no finite cut, and the solve would stop at its first augmenting
// path, so the benchmark drops such exits and times a whole solve.
func BenchmarkMinVertexCut(b *testing.B) {
	c := randCase(rand.New(rand.NewSource(1)), 1000)
	for v, src := range sources(c.n, c.succ) {
		if src && c.sepW[v] == Inf {
			c.isExit[v] = false
		}
	}
	// Fill the pool first, so even -benchtime 1x measures a warm call.
	benchSet, _, _ = MinVertexCut(c.n, c.succ, identity, c.sepW, c.isExit)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSet, _, _ = MinVertexCut(c.n, c.succ, identity, c.sepW, c.isExit)
	}
}

// benchSet keeps the benchmarked calls from being optimised away.
var benchSet []int

func TestNetworkFlowConservation(t *testing.T) {
	// After a max-flow run, net flow out of every interior node is zero.
	rng := rand.New(rand.NewSource(3))
	n := 12
	g := newNetwork(n)
	type arcRec struct{ u, v, id int }
	var recs []arcRec
	for i := 0; i < 50; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		id := g.AddArc(u, v, int64(1+rng.Intn(20)))
		recs = append(recs, arcRec{u, v, id})
	}
	g.MaxFlowDinic(0, n-1)
	net := make([]int64, n)
	for _, r := range recs {
		f := g.Flow(r.id)
		if f < 0 {
			t.Fatalf("negative flow %d on arc %d->%d", f, r.u, r.v)
		}
		net[r.u] -= f
		net[r.v] += f
	}
	for v := 1; v < n-1; v++ {
		if net[v] != 0 {
			t.Fatalf("flow conservation violated at node %d: %d", v, net[v])
		}
	}
}

func TestReachableFromIsolated(t *testing.T) {
	g := newNetwork(3)
	g.AddArc(0, 1, 5)
	seen := g.ReachableFrom(0)
	if !seen[0] || !seen[1] || seen[2] {
		t.Fatalf("reachability = %v, want [true true false]", seen)
	}
}
