package netlist

// BitSet is a fixed-capacity bit vector used as reusable scratch by the
// scaling loops' conflict tracking, replacing per-call map[int]bool
// allocations. Reset is O(capacity/64) via clearing words, so a set that is
// reused across iterations amortises to zero allocations.
type BitSet struct {
	words []uint64
}

// Grow ensures the set can hold indices [0, n).
func (b *BitSet) Grow(n int) {
	need := (n + 63) / 64
	if need > len(b.words) {
		b.words = append(b.words, make([]uint64, need-len(b.words))...)
	}
}

// Set marks index i, which must be within the grown capacity.
func (b *BitSet) Set(i int) { b.words[i>>6] |= 1 << uint(i&63) }

// Has reports whether index i is marked. Out-of-capacity indices read false.
func (b *BitSet) Has(i int) bool {
	w := i >> 6
	return w < len(b.words) && b.words[w]&(1<<uint(i&63)) != 0
}

// Reset clears every bit, keeping the capacity.
func (b *BitSet) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// AppendFanoutCone appends to out the gates reachable downstream from gate gi
// (including gi itself), the forward cone an arrival-time change at gi can
// influence, marking them in seen, and returns the extended out and stack
// buffers. It allocates nothing once the buffers have grown: seen must be
// grown to the gate count and is left holding the cone (callers Reset it
// between uses when needed); out and stack are reusable scratch.
func (f *Fanouts) AppendFanoutCone(c *Circuit, gi int, seen *BitSet, out, stack []int) ([]int, []int) {
	seen.Set(gi)
	out = append(out, gi)
	stack = append(stack[:0], gi)
	for len(stack) > 0 {
		g := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, cn := range f.Conns[c.GateSignal(g)] {
			if !seen.Has(cn.Gate) {
				seen.Set(cn.Gate)
				out = append(out, cn.Gate)
				stack = append(stack, cn.Gate)
			}
		}
	}
	return out, stack
}
