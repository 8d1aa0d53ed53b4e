package main

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dualvdd/internal/sim"
	"dualvdd/internal/sta"
)

// span is one timed interval of a traced pass: a call the benchmark made into
// a layer, a call crossing one of the service's injection seams, or a stage
// duration the program itself reported (FlowResult.Runtime and SimTime).
// Spans of one op share Op; Parent links a span to the one that caused it.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Op     string `json:"op,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// AllocBytes and the full-STA deltas are read only in one-goroutine
	// passes, where nothing else runs while the span is open.
	AllocBytes   uint64 `json:"alloc_bytes,omitempty"`
	FullAnalyses int64  `json:"sta_full_analyses,omitempty"`
	FullEvals    int64  `json:"sta_full_evals,omitempty"`
	WordEvals    int64  `json:"sim_word_evals,omitempty"`
}

// tracer keeps the spans of a traced pass in memory. A nil *tracer is the
// untraced mode: every method is a no-op.
type tracer struct {
	t0     time.Time
	serial bool // one-goroutine pass: read MemStats and counters at span edges
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
	kept  [][]span // passes already taken, for the span file
}

func newTracer(serial bool) *tracer { return &tracer{t0: time.Now(), serial: serial} }

type spanKey struct{}

// parentOf returns the span a context carries, or 0.
func parentOf(ctx context.Context) int64 {
	id, _ := ctx.Value(spanKey{}).(int64)
	return id
}

// openSpan is a span between begin and end.
type openSpan struct {
	t      *tracer
	s      span
	alloc0 uint64
	fa0    int64
	fe0    int64
	we0    int64
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under the span ctx carries and returns a context that
// carries the new one.
func (t *tracer) begin(ctx context.Context, name, op string) (context.Context, *openSpan) {
	if t == nil {
		return ctx, nil
	}
	return t.beginUnder(ctx, parentOf(ctx), name, op)
}

// beginUnder opens a span under an explicit parent.
func (t *tracer) beginUnder(ctx context.Context, parent int64, name, op string) (context.Context, *openSpan) {
	if t == nil {
		return ctx, nil
	}
	o := &openSpan{t: t, s: span{ID: t.nextID.Add(1), Parent: parent, Name: name, Op: op}}
	if t.serial {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		o.alloc0 = ms.TotalAlloc
		o.fa0, o.fe0, o.we0 = sta.FullAnalyses(), sta.FullEvals(), sim.WordEvals()
	}
	o.s.Start = t.now()
	return context.WithValue(ctx, spanKey{}, o.s.ID), o
}

// id is the span's identifier, 0 when untraced.
func (o *openSpan) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

// end closes the span and records it.
func (o *openSpan) end() span {
	if o == nil {
		return span{}
	}
	o.s.End = o.t.now()
	if o.t.serial {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		o.s.AllocBytes = ms.TotalAlloc - o.alloc0
		o.s.FullAnalyses = sta.FullAnalyses() - o.fa0
		o.s.FullEvals = sta.FullEvals() - o.fe0
		o.s.WordEvals = sim.WordEvals() - o.we0
	}
	o.t.add(o.s)
	return o.s
}

// add records a finished span, assigning it an ID when it has none.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	if s.ID == 0 {
		s.ID = t.nextID.Add(1)
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the spans recorded so far and starts a fresh list.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// keep stores a taken pass's spans for the span file.
func (t *tracer) keep(spans []span) {
	t.mu.Lock()
	t.kept = append(t.kept, spans)
	t.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part of its
// interval that its child spans cover.
func selfTimes(spans []span) map[string]int64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the kids' intervals, clipped to s.
func covered(s span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = s.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		if v.a < end {
			v.a = end
		}
		total += v.b - v.a
		end = v.b
	}
	return total
}

// spanStats aggregates one pass's spans per name.
type spanStats struct {
	self  map[string]int64
	count map[string]int64
	alloc map[string]uint64
	fa    map[string]int64
	fe    map[string]int64
}

func statsOf(spans []span) spanStats {
	st := spanStats{
		self:  selfTimes(spans),
		count: map[string]int64{},
		alloc: map[string]uint64{},
		fa:    map[string]int64{},
		fe:    map[string]int64{},
	}
	for _, s := range spans {
		st.count[s.Name]++
		st.alloc[s.Name] += s.AllocBytes
		st.fa[s.Name] += s.FullAnalyses
		st.fe[s.Name] += s.FullEvals
	}
	return st
}

func (st spanStats) ms(name string) float64 { return float64(st.self[name]) / 1e6 }
func (st spanStats) mb(name string) float64 { return float64(st.alloc[name]) / (1 << 20) }

// counters is a snapshot of the program's process-wide work counters.
type counters struct {
	fullAnalyses, fullEvals, simRuns, wordEvals int64
}

func readCounters() counters {
	return counters{sta.FullAnalyses(), sta.FullEvals(), sim.Runs(), sim.WordEvals()}
}

func (c counters) add(o counters) counters {
	return counters{c.fullAnalyses + o.fullAnalyses, c.fullEvals + o.fullEvals,
		c.simRuns + o.simRuns, c.wordEvals + o.wordEvals}
}

func (c counters) sub(o counters) counters {
	return counters{c.fullAnalyses - o.fullAnalyses, c.fullEvals - o.fullEvals,
		c.simRuns - o.simRuns, c.wordEvals - o.wordEvals}
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// cpuTicks reads the machine's total and stolen CPU time from /proc/stat,
// in clock ticks; zeros where it cannot.
func cpuTicks() (total, steal int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64) // a malformed field reads as 0
		total += v
		if i == 7 { // user nice system idle iowait irq softirq steal
			steal = v
		}
	}
	return total, steal
}

// passMeter measures one timed pass's process CPU time and peak resident
// set size. A pass starts after a collection that returns freed memory to
// the OS, so its peak does not depend on what earlier passes left behind.
type passMeter struct {
	cpu0       float64
	peak       atomic.Int64 // bytes
	stop, done chan struct{}
}

func startPass() *passMeter {
	runtime.GC()
	debug.FreeOSMemory()
	m := &passMeter{cpu0: cpuSeconds(), stop: make(chan struct{}), done: make(chan struct{})}
	m.peak.Store(rssBytes())
	go m.sample()
	return m
}

func (m *passMeter) sample() {
	defer close(m.done)
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			peak(&m.peak, rssBytes())
		}
	}
}

// end stops the meter and returns the pass's CPU seconds and peak RSS in MB.
func (m *passMeter) end() (cpuS, rssMB float64) {
	close(m.stop)
	<-m.done
	peak(&m.peak, rssBytes())
	return cpuSeconds() - m.cpu0, float64(m.peak.Load()) / (1 << 20)
}

// rssBytes is the process's resident set size now; 0 where unreadable.
func rssBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(f[1], 10, 64) // malformed reads as 0
	return pages * int64(os.Getpagesize())
}

// peak raises v to x when x is larger.
func peak(v *atomic.Int64, x int64) {
	for {
		cur := v.Load()
		if x <= cur || v.CompareAndSwap(cur, x) {
			return
		}
	}
}

// interleave runs op i untraced and traced back to back for every i,
// alternating which goes first so that drift and warm-up fall on both
// sides, and returns each side's total wall time in seconds with the
// counters the traced side moved.
func interleave(n int, plain, traced func(i int)) (plainS, tracedS float64, moved counters) {
	for i := 0; i < n; i++ {
		runPlain := func() {
			start := time.Now()
			plain(i)
			plainS += time.Since(start).Seconds()
		}
		runTraced := func() {
			c0 := readCounters()
			start := time.Now()
			traced(i)
			tracedS += time.Since(start).Seconds()
			moved = moved.add(readCounters().sub(c0))
		}
		if i%2 == 0 {
			runPlain()
			runTraced()
		} else {
			runTraced()
			runPlain()
		}
	}
	return plainS, tracedS, moved
}

// writeSpans writes every traced pass's spans as one JSON file.
func writeSpans(path string, passes [][]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"passes": passes}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanHeader carries a hop's span ID from the client transport to the
// server handler, so the handler's span nests under the hop.
const spanHeader = "X-Perfbench-Span"
