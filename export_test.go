package dualvdd

// Canonical is Job.canonical, for the external tests and benchmarks.
var Canonical = Job.canonical

// ResetCanonMemo empties the process-wide canonical-encoding memo, so the
// next canonical encoding of every input is a miss.
func ResetCanonMemo() {
	canonMemo.mu.Lock()
	defer canonMemo.mu.Unlock()
	clear(canonMemo.entries)
	canonMemo.lru.Init()
	canonMemo.size = 0
}
