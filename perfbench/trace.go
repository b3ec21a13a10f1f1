package main

import (
	"bufio"
	"encoding/json"
	"math/rand"
	"os"
	"sync"
	"time"

	"turnmodel/internal/metrics"
	"turnmodel/internal/routing"
	"turnmodel/internal/simcache"
	"turnmodel/internal/topology"
	"turnmodel/internal/traffic"
)

// Span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the trace began. A span that rolls up many calls (every
// traffic.Dest of one point, say) records the first call's start, the last
// call's end, how many calls it covers and the time spent inside them as
// Busy; a single-call span has Calls 1 and Busy End-Start.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Item names the sweep point or request the span belongs to; every
	// span of one point or request shares it.
	Item  string `json:"item"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	Busy  int64  `json:"busy_ns"`
	Calls int64  `json:"calls"`
}

// selfNanos is a span's self time: its duration minus the time its child
// spans were busy, floored at zero. Children at one boundary run on the
// parent's goroutine one after another, so their busy times never overlap
// and simply add.
func selfNanos(parent Span, children []Span) int64 {
	self := parent.End - parent.Start
	for _, c := range children {
		self -= c.Busy
	}
	return max(self, 0)
}

// tracer keeps every span of a run in memory; they are written once, at
// the end, so recording costs no I/O inside the measured work.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add records s, assigning and returning its ID.
func (t *tracer) add(s Span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// interval records a single-call span.
func (t *tracer) interval(name, item string, parent int, start, end int64) int {
	return t.add(Span{Parent: parent, Name: name, Item: item, Start: start, End: end, Busy: end - start, Calls: 1})
}

// write stores the header line and every span as JSON lines.
func (t *tracer) write(path string, header any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// rollup accumulates the calls of one layer within one point: it is owned
// by the point's goroutine and needs no locking.
type rollup struct {
	calls       int64
	busy        int64
	first, last time.Time
}

func (r *rollup) record(start time.Time) {
	end := time.Now()
	if r.calls == 0 {
		r.first = start
	}
	r.calls++
	r.busy += int64(end.Sub(start))
	r.last = end
}

// span converts the rollup into a span relative to the tracer's epoch.
func (r *rollup) span(t *tracer, name, item string, parent int) Span {
	s := Span{Parent: parent, Name: name, Item: item, Busy: r.busy, Calls: r.calls}
	if r.calls > 0 {
		s.Start, s.End = int64(r.first.Sub(t.epoch)), int64(r.last.Sub(t.epoch))
	}
	return s
}

// timedPattern times and counts every Dest call into the traffic layer.
type timedPattern struct {
	traffic.Pattern
	roll *rollup
}

func (p timedPattern) Dest(src topology.NodeID, rng *rand.Rand) topology.NodeID {
	start := time.Now()
	d := p.Pattern.Dest(src, rng)
	p.roll.record(start)
	return d
}

// timedRouting times and counts every candidate computation of the
// routing layer.
type timedRouting struct {
	routing.Algorithm
	roll *rollup
}

func (a timedRouting) Candidates(cur, dst topology.NodeID, in topology.Direction, inWrap bool) []topology.Direction {
	start := time.Now()
	c := a.Algorithm.Candidates(cur, dst, in, inWrap)
	a.roll.record(start)
	return c
}

// timedAppender is timedRouting over an algorithm with the allocation-free
// candidate path. The network type-asserts routing.CandidateAppender and
// takes that path when present, so the wrapper must offer it exactly when
// the wrapped algorithm does, or the traced run would measure other code.
type timedAppender struct {
	timedRouting
	app routing.CandidateAppender
}

func (a timedAppender) AppendCandidates(buf []topology.Direction, cur, dst topology.NodeID, in topology.Direction, inWrap bool) []topology.Direction {
	start := time.Now()
	c := a.app.AppendCandidates(buf, cur, dst, in, inWrap)
	a.roll.record(start)
	return c
}

// wrapRouting returns alg with every candidate call timed into roll,
// keeping the optional CandidateAppender interface as alg has it.
func wrapRouting(alg routing.Algorithm, roll *rollup) routing.Algorithm {
	t := timedRouting{alg, roll}
	if app, ok := alg.(routing.CandidateAppender); ok {
		return timedAppender{t, app}
	}
	return t
}

// countProbe counts one point's network events. Each traced point has its
// own probe and runs on one goroutine, so the counts need no locking.
type countProbe struct {
	metrics.NopProbe
	layerCounts
}

func (p *countProbe) Inject(int64, topology.NodeID, topology.NodeID, int) { p.injects++ }
func (p *countProbe) Blocked(int64, topology.NodeID)                      { p.blocked++ }
func (p *countProbe) FlitMove(_ int64, _ topology.NodeID, _ topology.Direction, flits int) {
	p.flitMoves += int64(flits)
}
func (p *countProbe) Deliver(_ int64, _, _ topology.NodeID, _, hops int, _, _ int64) {
	p.delivers++
	p.hops += int64(hops)
}
func (p *countProbe) Tick(int64) { p.cycles++ }

// layerCounts are simulated-network totals: one point's, or a run's.
type layerCounts struct {
	cycles, injects, flitMoves, blocked, delivers, hops int64
}

// add folds o's counts into c.
func (c *layerCounts) add(o layerCounts) {
	c.cycles += o.cycles
	c.injects += o.injects
	c.flitMoves += o.flitMoves
	c.blocked += o.blocked
	c.delivers += o.delivers
	c.hops += o.hops
}

// timedCache times and counts the service's calls into its result cache.
type timedCache struct {
	inner *simcache.Store

	mu                       sync.Mutex
	gets, hits, getNanos     int64
	puts, putBytes, putNanos int64
}

func (c *timedCache) Get(key string) ([]byte, bool) {
	start := time.Now()
	v, ok := c.inner.Get(key)
	d := int64(time.Since(start))
	c.mu.Lock()
	c.gets++
	if ok {
		c.hits++
	}
	c.getNanos += d
	c.mu.Unlock()
	return v, ok
}

func (c *timedCache) Put(key string, val []byte) error {
	start := time.Now()
	err := c.inner.Put(key, val)
	d := int64(time.Since(start))
	c.mu.Lock()
	c.puts++
	c.putBytes += int64(len(val))
	c.putNanos += d
	c.mu.Unlock()
	return err
}

// Stats forwards the store's counters, which the service reports in
// /v1/stats when its cache offers them.
func (c *timedCache) Stats() simcache.Stats {
	return c.inner.Stats()
}
