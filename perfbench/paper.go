package main

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"time"

	"turnmodel/internal/routing"
	"turnmodel/internal/sim"
)

// paperWorkload is a figure sweep run the way turnsweep runs it.
type paperWorkload struct {
	name            string
	specs           []sim.FigureSpec
	warmup, measure int64
	// tracedPasses is how many untraced/traced pass pairs a traced run
	// makes: fixed, so its counts repeat exactly for a seed.
	tracedPasses int
	// served makes a traced run also serve the plan through the service
	// (see serveLayers).
	served bool
}

// paperAll is `turnsweep -quick -all`: figures 13-16 and uniform-cube at
// every algorithm and rate, 208 points, most of their time at saturation.
var paperAll = paperWorkload{"paper-all", sim.Figures(), 3000, 8000, 1, false}

// paperLight is the same five figures at each one's two lowest rates with
// the default windows: 40 points, every one far below saturation, so the
// network idles and the event-driven clock leaps between arrivals.
var paperLight = paperWorkload{"paper-light", lowestRates(sim.Figures(), 2), 20000, 40000, 5, true}

func lowestRates(specs []sim.FigureSpec, n int) []sim.FigureSpec {
	out := make([]sim.FigureSpec, len(specs))
	for i, s := range specs {
		s.Rates = s.Rates[:n]
		out[i] = s
	}
	return out
}

func (w paperWorkload) options(seed int64) sim.Options {
	return sim.Options{
		Specs:         w.specs,
		WarmupCycles:  w.warmup,
		MeasureCycles: w.measure,
		Seed:          seed,
		Jobs:          nproc,
		SeedFn:        sim.PairedSeed,
	}
}

// Set-up is timed in groups, one before the first pass and one after every
// pass, so that its samples span the run: the host's speed drifts over
// seconds. A group calls sim.NewRunner in batches of setupBatchCalls, each
// after a garbage collection, until setupGroupTime is spent. A batch is
// timed as a whole because one call takes microseconds, and in process CPU
// time, collector work included, because on a host with steal time the
// wall time of such short work doubles from one second to the next while
// its CPU time stays within a few percent. setup_s is the median over every
// batch of the run of its CPU time per call.
const (
	setupBatchCalls = 100
	setupGroupTime  = 200 * time.Millisecond
)

// setUp builds the runner for opts in one group of timed batches and
// appends each batch's CPU time per call to perCall.
func setUp(opts sim.Options, perCall *[]float64) (*sim.Runner, error) {
	var r *sim.Runner
	for group := time.Now(); time.Since(group) < setupGroupTime; {
		runtime.GC()
		start := cpuTime()
		for range setupBatchCalls {
			var err error
			if r, err = sim.NewRunner(opts); err != nil {
				return nil, err
			}
		}
		*perCall = append(*perCall, (cpuTime()-start).Seconds()/setupBatchCalls)
	}
	return r, nil
}

// pass is one checked sweep of the workload's plan.
type pass struct {
	wall, cpu  time.Duration
	latencies  []float64 // per-point wall times, ms
	points     int
	failed     int
	digest     string
	failureErr error
}

// sweep runs the plan once through r, checks every point and digests the
// report.
func (w paperWorkload) sweep(r *sim.Runner, lat *[]float64) pass {
	*lat = (*lat)[:0]
	c := startClock()
	out, err := r.Run(context.Background())
	var p pass
	p.wall, p.cpu = c.stop()
	p.latencies = append([]float64(nil), *lat...)
	if err != nil {
		p.points, p.failed, p.failureErr = r.Total(), r.Total(), err
		return p
	}
	p.points, p.failed, p.failureErr = reportPoints(out.Report)
	if p.digest, err = statsDigest(out.Report); err != nil {
		p.failed, p.failureErr = p.points, err
	}
	return p
}

// run measures the plan end to end, checking each pass. It sweeps until
// enough points are timed for a p95 and no further pass fits in the time
// left, judged by the longest pass so far, so a run does not outlast its
// time by most of a pass. Per-pass figures are reported as the median over
// passes: the mean of the middle two when there is an even number of them.
func (w paperWorkload) run(cfg runConfig) (*result, error) {
	var lat []float64
	opts := w.options(cfg.seed)
	opts.OnPoint = func(ev sim.PointEvent) { lat = append(lat, ev.WallMillis) }
	var setups []float64
	r, err := setUp(opts, &setups)
	if err != nil {
		return nil, err
	}

	res := newResult()
	var cpuPerPoint, pointsPerS, latencies []float64
	var firstDigest string
	var longest time.Duration
	start := time.Now()
	for n := 1; n == 1 || time.Since(start)+longest <= cfg.seconds || len(latencies) < minSamplesFor(95); n++ {
		iter := time.Now()
		p := w.sweep(r, &lat)
		passLine(fmt.Sprintf("pass %d", n), p.wall, p.cpu, p.points)
		res.attempted += p.points
		if p.failureErr != nil {
			res.fail(p.failureErr)
		}
		// A pass whose statistics digest is wrong fails as a whole.
		var digestErr error
		if n == 1 {
			firstDigest = p.digest
			fmt.Printf("digest %s seed=%d %s\n", w.name, cfg.seed, p.digest)
			digestErr = checkDigest(w.name, cfg.seed, p.digest)
		} else if p.digest != firstDigest {
			digestErr = fmt.Errorf("pass %d digest %s differs from pass 1 at the same seed", n, p.digest)
		}
		if digestErr != nil {
			p.failed = p.points
			res.fail(digestErr)
		}
		res.failed += p.failed
		pointsPerS = append(pointsPerS, float64(p.points)/p.wall.Seconds())
		cpuPerPoint = append(cpuPerPoint, p.cpu.Seconds()/float64(p.points))
		latencies = append(latencies, p.latencies...)
		if r, err = setUp(opts, &setups); err != nil {
			return nil, err
		}
		longest = max(longest, time.Since(iter))
	}
	fmt.Printf("setup: %d batches of %d calls, per call min %.3gs median %.3gs max %.3gs\n",
		len(setups), setupBatchCalls, slices.Min(setups), median(setups), slices.Max(setups))
	fmt.Printf("samples: %d passes, %d point latencies (highest reportable percentile p%g)\n",
		len(pointsPerS), len(latencies), highestPercentile(len(latencies)))
	res.set("points_per_s", median(pointsPerS), "1/s")
	res.set("cpu_s_per_point", median(cpuPerPoint), "s")
	res.set("latency_ms.p50", percentile(latencies, 50), "ms")
	res.set("latency_ms.p95", percentile(latencies, 95), "ms")
	res.set("setup_s", median(setups), "s")
	res.set("max_rss_mb", maxRSSMB(), "MiB")
	return res, nil
}

// traced runs each pass twice: once untraced through sim.RunSweep, once
// point by point through sim.Run with the traffic pattern and routing
// algorithm wrapped and a counting probe attached. The traced results must
// equal the untraced ones point for point, or the wrappers perturbed the
// simulation.
func (w paperWorkload) traced(cfg runConfig) (*result, error) {
	res := newResult()
	tr := newTracer()
	var (
		untracedCPU, tracedCPU time.Duration
		counts                 layerCounts
		points                 int
		selfNs, destNs, candNs int64
		destCalls, candCalls   int64
	)
	for i := range w.tracedPasses {
		c := startClock()
		out, err := sim.RunSweep(context.Background(), w.options(cfg.seed))
		if err != nil {
			return nil, err
		}
		wall, cpu := c.stop()
		untracedCPU += cpu
		passLine(fmt.Sprintf("untraced pass %d", i+1), wall, cpu, out.Report.Totals.JobsRun)

		c = startClock()
		pts := w.tracedPass(tr, cfg.seed, i)
		wall, cpu = c.stop()
		tracedCPU += cpu
		passLine(fmt.Sprintf("traced pass %d", i+1), wall, cpu, len(pts))

		for _, pt := range pts {
			res.attempted++
			want := out.Figures[pt.spec].Series[w.specs[pt.spec].Algorithms[pt.alg]][pt.rate]
			err := checkPoint(pt.result)
			if err == nil && !reflect.DeepEqual(pt.result, want) {
				err = fmt.Errorf("traced point %s differs from the untraced sweep", pt.item)
			}
			if err != nil {
				res.failed++
				res.fail(err)
			}
			points++
			counts.add(pt.probe.layerCounts)
			selfNs += selfNanos(pt.span, []Span{pt.dest, pt.cands})
			destNs += pt.dest.Busy
			destCalls += pt.dest.Calls
			candNs += pt.cands.Busy
			candCalls += pt.cands.Calls
		}
	}
	res.set("sim.points", float64(points), "count")
	res.set("sim.point.self_s", float64(selfNs)/1e9, "s")
	res.set("sim.point.host_ns_per_cycle", float64(selfNs)/float64(counts.cycles), "ns")
	res.set("traffic.dest.calls", float64(destCalls), "count")
	res.set("traffic.dest.self_s", float64(destNs)/1e9, "s")
	res.set("routing.candidates.calls", float64(candCalls), "count")
	res.set("routing.candidates.self_s", float64(candNs)/1e9, "s")
	res.set("routing.useful_ratio", float64(counts.hops)/float64(candCalls), "ratio")
	setNetwork(res, counts)
	res.set("trace.overhead_ratio", tracedCPU.Seconds()/untracedCPU.Seconds()-1, "ratio")
	if w.served {
		if err := w.serveLayers(res, tr, cfg); err != nil {
			return nil, err
		}
	}
	fillLayers(res)
	return res, writeSpans(tr, cfg)
}

// tracedPoint is one point run under the wrappers.
type tracedPoint struct {
	spec, alg, rate int
	item            string
	result          sim.Result
	probe           *countProbe
	span            Span
	dest, cands     Span
}

// tracedPass runs every point of the plan on nproc workers with the same
// Config the runner builds for it, plus the wrappers.
func (w paperWorkload) tracedPass(tr *tracer, seed int64, passIdx int) []*tracedPoint {
	var pts []*tracedPoint
	for si, spec := range w.specs {
		for ai, name := range spec.Algorithms {
			for ri := range spec.Rates {
				pts = append(pts, &tracedPoint{spec: si, alg: ai, rate: ri,
					item: fmt.Sprintf("pass%d/%s/%s/%g", passIdx+1, spec.ID, name, spec.Rates[ri])})
			}
		}
	}
	ch := make(chan *tracedPoint)
	var wg sync.WaitGroup
	for range nproc {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pt := range ch {
				w.tracePoint(tr, seed, pt)
			}
		}()
	}
	for _, pt := range pts {
		ch <- pt
	}
	close(ch)
	wg.Wait()
	return pts
}

func (w paperWorkload) tracePoint(tr *tracer, seed int64, pt *tracedPoint) {
	spec := w.specs[pt.spec]
	name := spec.Algorithms[pt.alg]
	topo := spec.NewTopology()
	alg, err := routing.New(name, topo)
	if err != nil {
		panic(err) // the untraced sweep already resolved every name
	}
	var dest, cands rollup
	pt.probe = &countProbe{}
	cfg := sim.Config{
		Routing: wrapRouting(alg, &cands),
		RunParams: sim.RunParams{
			Pattern:       timedPattern{spec.NewPattern(topo), &dest},
			InjectionRate: spec.Rates[pt.rate],
			WarmupCycles:  w.warmup,
			MeasureCycles: w.measure,
			Seed:          sim.PairedSeed(seed, spec.ID, name, pt.rate),
			Probe:         pt.probe,
		},
	}
	start := tr.now()
	pt.result = sim.Run(cfg)
	end := tr.now()
	id := tr.interval("sim.point", pt.item, 0, start, end)
	pt.span = Span{ID: id, Name: "sim.point", Item: pt.item, Start: start, End: end, Busy: end - start, Calls: 1}
	pt.dest = dest.span(tr, "traffic.dest", pt.item, id)
	pt.cands = cands.span(tr, "routing.candidates", pt.item, id)
	tr.add(pt.dest)
	tr.add(pt.cands)
}

func setNetwork(res *result, c layerCounts) {
	res.set("network.cycles", float64(c.cycles), "count")
	res.set("network.injects", float64(c.injects), "count")
	res.set("network.flit_moves", float64(c.flitMoves), "count")
	res.set("network.blocked", float64(c.blocked), "count")
	res.set("network.delivers", float64(c.delivers), "count")
	res.set("network.grant_ratio", float64(c.hops)/float64(c.hops+c.blocked), "ratio")
}

// writeSpans stores the run's spans as JSON lines under the workdir.
func writeSpans(tr *tracer, cfg runConfig) error {
	path := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	header := map[string]any{"workload": cfg.workload, "seed": cfg.seed, "host": fingerprint()}
	if err := tr.write(path, header); err != nil {
		return err
	}
	fmt.Printf("spans: %s\n", path)
	return nil
}
