package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"turnmodel/internal/routing"
	"turnmodel/internal/sim"
	"turnmodel/internal/topology"
	"turnmodel/internal/traffic"
)

// spyRouting counts which candidate path the network takes.
type spyRouting struct {
	routing.Algorithm
	app                    routing.CandidateAppender
	candCalls, appendCalls int
}

func (s *spyRouting) Candidates(cur, dst topology.NodeID, in topology.Direction, inWrap bool) []topology.Direction {
	s.candCalls++
	return s.Algorithm.Candidates(cur, dst, in, inWrap)
}

func (s *spyRouting) AppendCandidates(buf []topology.Direction, cur, dst topology.NodeID, in topology.Direction, inWrap bool) []topology.Direction {
	s.appendCalls++
	return s.app.AppendCandidates(buf, cur, dst, in, inWrap)
}

// plainRouting hides any CandidateAppender of the algorithm it embeds.
type plainRouting struct{ routing.Algorithm }

func smallConfig(t *testing.T, alg routing.Algorithm, topo topology.Topology) sim.Config {
	t.Helper()
	return sim.Config{
		Routing: alg,
		RunParams: sim.RunParams{
			Pattern:       traffic.Uniform{Topo: topo},
			InjectionRate: 0.05,
			WarmupCycles:  300,
			MeasureCycles: 1000,
			Seed:          7,
		},
	}
}

func TestWrappersAreTransparent(t *testing.T) {
	topo := topology.NewMesh2D(6, 6)
	bare, err := routing.New("west-first", topo)
	if err != nil {
		t.Fatal(err)
	}
	app, ok := bare.(routing.CandidateAppender)
	if !ok {
		t.Fatal("west-first no longer offers the allocation-free candidate path")
	}
	want := sim.Run(smallConfig(t, bare, topo))

	spy := &spyRouting{Algorithm: bare, app: app}
	var cands, dest rollup
	probe := &countProbe{}
	cfg := smallConfig(t, wrapRouting(spy, &cands), topo)
	cfg.Pattern = timedPattern{cfg.Pattern, &dest}
	cfg.Probe = probe
	got := sim.Run(cfg)

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("wrapped run differs:\n got %+v\nwant %+v", got, want)
	}
	if spy.appendCalls == 0 || spy.candCalls != 0 {
		t.Fatalf("network took Candidates %d times and AppendCandidates %d times; want the appender path only",
			spy.candCalls, spy.appendCalls)
	}
	if cands.calls != int64(spy.appendCalls) {
		t.Errorf("routing rollup counted %d calls, algorithm saw %d", cands.calls, spy.appendCalls)
	}
	if dest.calls == 0 || cands.busy <= 0 || dest.busy <= 0 {
		t.Errorf("rollups recorded nothing: traffic %+v routing %+v", dest, cands)
	}
	if probe.cycles != 1300 || probe.delivers == 0 {
		t.Errorf("probe counted %d cycles and %d deliveries", probe.cycles, probe.delivers)
	}
}

func TestWrapRoutingKeepsInterfaceSet(t *testing.T) {
	topo := topology.NewMesh2D(4, 4)
	bare, err := routing.New("xy", topo)
	if err != nil {
		t.Fatal(err)
	}
	var roll rollup
	if _, ok := wrapRouting(bare, &roll).(routing.CandidateAppender); !ok {
		t.Error("wrapper dropped CandidateAppender")
	}
	plain := plainRouting{bare}
	if _, ok := wrapRouting(plain, &roll).(routing.CandidateAppender); ok {
		t.Error("wrapper added CandidateAppender to an algorithm without it")
	}
	want := sim.Run(smallConfig(t, plain, topo))
	got := sim.Run(smallConfig(t, wrapRouting(plain, &roll), topo))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("wrapped Candidates-only run differs")
	}
	if roll.calls == 0 {
		t.Error("no Candidates calls recorded")
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
	if got := minSamplesFor(95); got != 200 {
		t.Errorf("minSamplesFor(95) = %d, want 200", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // descending: percentile must sort
	}
	for _, tc := range []struct{ p, want float64 }{{50, 100}, {95, 190}, {99, 198}, {100, 200}, {0, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..200, %g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if xs[0] != 200 {
		t.Error("percentile reordered its input")
	}
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{{[]float64{3}, 3}, {[]float64{4, 2}, 3}, {[]float64{5, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %g, want %g", tc.xs, got, tc.want)
		}
	}
}

func TestSelfNanos(t *testing.T) {
	parent := Span{Start: 1000, End: 1100, Busy: 100, Calls: 1}
	for _, tc := range []struct {
		name     string
		children []Span
		want     int64
	}{
		{"no children", nil, 100},
		{"two rollups", []Span{{Busy: 30, Calls: 7}, {Busy: 20, Calls: 3}}, 50},
		{"single call", []Span{{Start: 1010, End: 1050, Busy: 40, Calls: 1}}, 60},
		{"empty rollup", []Span{{}}, 100},
		{"clamped", []Span{{Busy: 80}, {Busy: 40}}, 0},
	} {
		if got := selfNanos(parent, tc.children); got != tc.want {
			t.Errorf("%s: self = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestRollupSpan(t *testing.T) {
	tr := newTracer()
	var r rollup
	if s := r.span(tr, "traffic.dest", "p", 1); s.Calls != 0 || s.Busy != 0 || s.Start != 0 || s.End != 0 {
		t.Errorf("empty rollup span = %+v", s)
	}
	for range 3 {
		r.record(tr.epoch.Add(0))
	}
	s := r.span(tr, "traffic.dest", "p", 1)
	if s.Calls != 3 || s.Parent != 1 || s.Start != 0 || s.End < s.Start {
		t.Errorf("rollup span = %+v", s)
	}
	// Each call started at the epoch, so the busy time covers each call's
	// whole interval and is at least the last call's end.
	if s.Busy < s.End {
		t.Errorf("busy %d below the last call's end %d", s.Busy, s.End)
	}
}

func TestCheckPoint(t *testing.T) {
	ok := sim.Result{Packets: 10, AvgLatencyUs: 2, DeliveredFraction: 1}
	if err := checkPoint(ok); err != nil {
		t.Fatalf("valid point rejected: %v", err)
	}
	bad := []sim.Result{
		{Packets: 10, AvgLatencyUs: 2, DeliveredFraction: 1, Deadlocked: true},
		{Packets: 0, AvgLatencyUs: 2, DeliveredFraction: 1},
		{Packets: 10, AvgLatencyUs: 0, DeliveredFraction: 1},
		{Packets: 10, AvgLatencyUs: 2, DeliveredFraction: 0.5, Dropped: 3},
	}
	for i, r := range bad {
		if checkPoint(r) == nil {
			t.Errorf("bad point %d accepted", i)
		}
	}
}

func TestSpecGroupsCoverPaperLight(t *testing.T) {
	gs := paperLight.specGroups(9)
	if len(gs) != 2 {
		t.Fatalf("%d spec groups, want mesh and cube", len(gs))
	}
	want := []struct {
		figures []string
		rates   []float64
		next    float64
	}{
		{[]string{"figure13", "figure14"}, []float64{0.01, 0.02}, 0.03},
		{[]string{"figure15", "figure16", "uniform-cube"}, []float64{0.02, 0.05}, 0.08},
	}
	for i, g := range gs {
		w := want[i]
		if !reflect.DeepEqual(g.spec.Figures, w.figures) || !reflect.DeepEqual(g.spec.Rates, w.rates) || g.next != w.next {
			t.Errorf("group %d = %v rates %v next %g, want %v rates %v next %g",
				i, g.spec.Figures, g.spec.Rates, g.next, w.figures, w.rates, w.next)
		}
		if g.spec.Seed != 9 || g.spec.WarmupCycles != paperLight.warmup || g.spec.MeasureCycles != paperLight.measure {
			t.Errorf("group %d spec %+v does not carry the plan's seed and windows", i, g.spec)
		}
	}
}

// TestPerLayerMatchesBenchmarkJSON keeps the per-layer list the traced run
// reports in step with the one BENCHMARK.json declares.
func TestPerLayerMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	var declared []metricSpec
	for _, m := range bench.PerLayer {
		declared = append(declared, metricSpec{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(declared, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from perLayer:\n json %v\n code %v", declared, perLayer)
	}
}
