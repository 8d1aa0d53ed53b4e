package mapper

import (
	"testing"

	"dualvdd/internal/cell"
	"dualvdd/internal/logic"
)

func TestConsingCancelsDoubleInversion(t *testing.T) {
	ctx := newSgCtx()
	a := ctx.mkLeaf(0)
	if got := ctx.mkINV(ctx.mkINV(a)); got != a {
		t.Fatal("INV(INV(x)) must cons back to x")
	}
}

func TestConsingSharesStructurallyEqualNodes(t *testing.T) {
	ctx := newSgCtx()
	a, b := ctx.mkLeaf(0), ctx.mkLeaf(1)
	n1 := ctx.mkNAND(a, b)
	n2 := ctx.mkNAND(b, a) // commutative: canonical order must share
	if n1 != n2 {
		t.Fatal("NAND(a,b) and NAND(b,a) must be the same consed node")
	}
	if ctx.mkLeaf(0) != a {
		t.Fatal("leaves must be shared per reference")
	}
}

func TestAndOrLoweringShapes(t *testing.T) {
	ctx := newSgCtx()
	a, b := ctx.mkLeaf(0), ctx.mkLeaf(1)
	and := ctx.mkAND(a, b)
	if and.kind != sgINV || and.fan[0].kind != sgNAND {
		t.Fatal("AND must lower to INV(NAND)")
	}
	or := ctx.mkOR(a, b)
	if or.kind != sgNAND || or.fan[0].kind != sgINV || or.fan[1].kind != sgINV {
		t.Fatal("OR must lower to NAND(INV,INV)")
	}
}

func TestSopToSgConstants(t *testing.T) {
	ctx := newSgCtx()
	a := ctx.mkLeaf(0)
	if got := ctx.sopToSg(nil, []*sgNode{a}); got != nil {
		t.Fatal("empty cover must lower to nil (constant 0)")
	}
	if got := ctx.sopToSg([]logic.Cube{"-"}, []*sgNode{a}); got != nil {
		t.Fatal("tautological cube must lower to nil (constant 1)")
	}
}

func TestBuildSubjectSharesAcrossNodes(t *testing.T) {
	// Two logic nodes computing the same function over the same fanins must
	// cons to one subject node — the mapper's global-view optimisation.
	n := logic.New("share")
	a := n.AddPI("a")
	b := n.AddPI("b")
	x := n.AddNode("x", []logic.Signal{a, b}, []logic.Cube{"11"})
	y := n.AddNode("y", []logic.Signal{a, b}, []logic.Cube{"11"})
	n.AddPO("ox", x)
	n.AddPO("oy", y)
	sub, err := buildSubject(n)
	if err != nil {
		t.Fatal(err)
	}
	if sub.rootOf[x] != sub.rootOf[y] {
		t.Fatal("identical covers must share a subject node")
	}
}

func TestCountFanoutsCountsConsumers(t *testing.T) {
	ctx := newSgCtx()
	a, b, c := ctx.mkLeaf(0), ctx.mkLeaf(1), ctx.mkLeaf(2)
	shared := ctx.mkNAND(a, b)
	top1 := ctx.mkNAND(shared, c)
	top2 := ctx.mkINV(shared)
	order := ctx.countFanouts([]*sgNode{top1, top2})
	if shared.nfo != 2 {
		t.Fatalf("shared node fanout = %d, want 2", shared.nfo)
	}
	// Children must precede parents in the order.
	pos := map[*sgNode]int{}
	for i, n := range order {
		pos[n] = i
	}
	if pos[shared] > pos[top1] || pos[a] > pos[shared] {
		t.Fatal("countFanouts order violates topology")
	}
}

func TestPatternsMatchTheirOwnFunctions(t *testing.T) {
	// Sanity for the whole pattern table: lowering a cell function's SOP and
	// matching it with the cell's own pattern must succeed and the covering
	// DP must offer that cell for the subject root.
	lib := cell.Compass06()
	for _, pat := range patterns() {
		// Skip shapes that legitimately cannot appear as one tree.
		if pat.fn == cell.FXOR3 {
			continue
		}
		n := logic.New("p")
		fanin := make([]logic.Signal, pat.numVars)
		for i := range fanin {
			fanin[i] = n.AddPI(string(rune('a' + i)))
		}
		tt := pat.fn.TruthTable()
		var cubes []logic.Cube
		for row := 0; row < 1<<uint(pat.numVars); row++ {
			if tt>>uint(row)&1 == 0 {
				continue
			}
			r := make([]byte, pat.numVars)
			for i := range r {
				if row>>uint(i)&1 == 1 {
					r[i] = '1'
				} else {
					r[i] = '0'
				}
			}
			cubes = append(cubes, logic.Cube(r))
		}
		out := n.AddNode("f", fanin, cubes)
		n.AddPO("f", out)
		res, err := Map(n, lib, 1.2)
		if err != nil {
			t.Fatalf("%s: %v", pat.fn, err)
		}
		// Functional equivalence is what matters; minterm covers may map to
		// a different but correct structure.
		words := make([]uint64, pat.numVars)
		for i := range words {
			var w uint64
			for row := 0; row < 64; row++ {
				if row>>uint(i)&1 == 1 {
					w |= 1 << uint(row)
				}
			}
			words[i] = w
		}
		wantPO, _, err := n.Eval(words, false)
		if err != nil {
			t.Fatal(err)
		}
		rows := uint(1) << uint(pat.numVars)
		mask := ^uint64(0)
		if rows < 64 {
			mask = (uint64(1) << rows) - 1
		}
		gotPO, err := evalCircuit(res, words)
		if err != nil {
			t.Fatalf("%s: %v", pat.fn, err)
		}
		if gotPO&mask != wantPO[0]&mask {
			t.Fatalf("%s: mapped function differs: %x vs %x", pat.fn, gotPO&mask, wantPO[0]&mask)
		}
	}
}

// evalCircuit runs the mapped circuit over PI words and returns PO 0.
func evalCircuit(res *Result, words []uint64) (uint64, error) {
	order, err := res.Circuit.TopoOrder()
	if err != nil {
		return 0, err
	}
	vals := make([]uint64, res.Circuit.NumSignals())
	copy(vals, words)
	for _, gi := range order {
		g := res.Circuit.Gates[gi]
		in := make([]uint64, len(g.In))
		for i, s := range g.In {
			in[i] = vals[s]
		}
		vals[res.Circuit.GateSignal(gi)] = g.Cell.Function.Eval(in)
	}
	return vals[res.Circuit.POs[0].Src], nil
}

func TestMatchPatternBindingConsistency(t *testing.T) {
	// XOR's pattern has repeated variables; matching XOR-shaped subject
	// succeeds, but an AND-of-different-leaves shaped like XOR's tree with
	// inconsistent leaves must fail.
	lib := cell.Compass06()
	// Separate contexts: consing would otherwise share the common inner NAND
	// between the two shapes and legitimately block interior matching.
	ctx := newSgCtx()
	a, b := ctx.mkLeaf(0), ctx.mkLeaf(1)
	// True XOR(a,b) shape.
	xorShape := ctx.mkNAND(ctx.mkNAND(a, ctx.mkINV(b)), ctx.mkNAND(ctx.mkINV(a), b))
	ctx.countFanouts([]*sgNode{xorShape})
	ctx2 := newSgCtx()
	a2, b2, c2 := ctx2.mkLeaf(0), ctx2.mkLeaf(1), ctx2.mkLeaf(2)
	// Same tree shape but with c where the second 'a' should be.
	fakeShape := ctx2.mkNAND(ctx2.mkNAND(a2, ctx2.mkINV(b2)), ctx2.mkNAND(ctx2.mkINV(c2), b2))
	ctx2.countFanouts([]*sgNode{fakeShape})
	cs := &coverState{lib: lib, nominal: 0.004, isBoundary: make([]bool, max(len(ctx.nodes), len(ctx2.nodes)))}
	var xorPat *pattern
	for _, p := range patterns() {
		if p.fn == cell.FXOR2 {
			xorPat = p
		}
	}
	bind := make([]*sgNode, 2)
	var trail []int
	if !cs.matchPattern(xorPat.root, xorShape, xorShape, bind, &trail) {
		t.Fatal("XOR pattern must match the XOR shape")
	}
	bind = make([]*sgNode, 2)
	trail = nil
	if cs.matchPattern(xorPat.root, fakeShape, fakeShape, bind, &trail) {
		t.Fatal("XOR pattern must reject inconsistent leaf bindings")
	}
}
