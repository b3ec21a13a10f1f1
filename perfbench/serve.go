package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"time"

	"turnmodel/internal/jobstore"
	"turnmodel/internal/serve"
	"turnmodel/internal/sim"
	"turnmodel/internal/simcache"
)

// Request classes of a served plan.
const (
	classFresh   = "fresh"   // an unseen spec: simulates, journals, fills the cache
	classOverlap = "overlap" // a fresh spec plus one rate: mostly point-cache hits
	classRepeat  = "repeat"  // a byte-identical resubmission: answered without simulating
)

var classes = []string{classFresh, classOverlap, classRepeat}

// servedRounds is how many times a traced run serves its plan, each time
// under another seed, so each class has that many samples per spec.
const servedRounds = 5

// service is one in-process turnserved, wired as the daemon wires
// -cachedir: a disk result cache with its janitor, and a durable job store
// beside it, on a loopback listener.
type service struct {
	dir    string
	base   string
	cache  *simcache.Store
	jobs   *jobstore.Store
	srv    *serve.Server
	hs     *http.Server
	served chan error
	client *http.Client
	timed  *timedCache
}

// startService brings a server up in a fresh directory under workdir, its
// result cache wrapped with timers, and returns once /readyz answers 200.
func startService(workdir string) (*service, error) {
	dir, err := os.MkdirTemp(workdir, "serve-")
	if err != nil {
		return nil, err
	}
	s := &service{dir: dir}
	s.cache = simcache.NewStore(simcache.Options{Dir: dir})
	s.cache.StartJanitor(time.Minute)
	s.timed = &timedCache{inner: s.cache}
	cfg := serve.Config{QueueDepth: 8, SubmitBurst: 4, StreamBurst: 8, Cache: s.timed}
	if s.jobs, err = jobstore.Open(filepath.Join(dir, "jobs")); err != nil {
		s.cache.Close()
		return nil, err
	}
	cfg.Store = s.jobs
	s.srv = serve.NewServer(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Shutdown(context.Background())
		s.cache.Close()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}}
	for {
		resp, err := s.client.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the server in the daemon's order — scheduler, HTTP, cache —
// waits for the listener goroutine and removes the directory.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if herr := s.hs.Shutdown(ctx); err == nil {
		err = herr
	}
	if serr := <-s.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	s.cache.Close()
	s.client.CloseIdleConnections()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// freshSpec is a fresh request a client sent and the report it got.
type freshSpec struct {
	spec   serve.JobSpec
	body   []byte
	report []byte
}

// outcome is one request's result and client-side timings.
type outcome struct {
	class, item                        string
	err                                error
	start, submitted, firstPoint, done time.Time
	reported, end                      time.Time
	points, simulated, cached          int
}

// client is a user of the service that sends a request, waits for its
// report, checks it, and only then sends the next one.
type client struct {
	svc *service
	out []outcome
}

// do sends one request and checks its report against its class.
func (c *client) do(class string, f *freshSpec, body []byte) {
	o := outcome{class: class, item: fmt.Sprintf("req%d", len(c.out)+1)}
	o.start = time.Now()
	report, err := c.request(&o, body)
	if err == nil {
		err = c.checkReport(class, f, report)
	}
	o.end = time.Now()
	o.err = err
	c.out = append(c.out, o)
}

// request submits body, follows the job's event stream to its done event
// and fetches the report, stamping each step into o.
func (c *client) request(o *outcome, body []byte) ([]byte, error) {
	base := c.svc.base
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Client-Id", "perfbench")
	var status serve.Status
	if err := c.call(req, &status); err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	o.submitted = time.Now()

	resp, err := c.svc.client.Get(base + "/v1/jobs/" + status.ID + "/events")
	if err != nil {
		return nil, fmt.Errorf("events: %w", err)
	}
	err = c.stream(o, resp)
	// The server ends the stream after done; reading it to the end lets
	// the connection be reused.
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("events: %w", err)
	}
	o.done = time.Now()

	resp, err = c.svc.client.Get(base + "/v1/jobs/" + status.ID + "/report")
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	o.reported = time.Now()
	return raw, nil
}

// call sends req and decodes a 2xx JSON answer into v.
func (c *client) call(req *http.Request, v any) error {
	resp, err := c.svc.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	return json.Unmarshal(raw, v)
}

// stream reads server-sent events until the job's done event, which must
// report state done.
func (c *client) stream(o *outcome, resp *http.Response) error {
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			event = name
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		switch event {
		case "point":
			var ev struct {
				Cached bool `json:"cached"`
			}
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				return fmt.Errorf("point event: %w", err)
			}
			if o.points == 0 {
				o.firstPoint = time.Now()
			}
			o.points++
			if ev.Cached {
				o.cached++
			} else {
				o.simulated++
			}
		case "done":
			var st serve.Status
			if err := json.Unmarshal([]byte(data), &st); err != nil {
				return fmt.Errorf("done event: %w", err)
			}
			if st.State != serve.StateDone {
				return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
			}
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return errors.New("stream ended without a done event")
}

// checkReport validates a report against its class: every report parses,
// passes the point invariants and holds every point its spec asks for; a
// repeat is byte-identical to its fresh report; an overlap's shared points
// equal the fresh ones.
func (c *client) checkReport(class string, f *freshSpec, raw []byte) error {
	rep, err := sim.ReadReport(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	points, failed, err := reportPoints(rep)
	if failed > 0 {
		return err
	}
	rates := len(f.spec.Rates)
	switch class {
	case classRepeat:
		if !bytes.Equal(raw, f.report) {
			return errors.New("repeat report differs from its fresh report")
		}
	case classOverlap:
		rates++
		if err := sharedPointsEqual(f.report, rep); err != nil {
			return err
		}
	}
	want := 0
	for _, id := range f.spec.Figures {
		fig, _ := sim.FigureByID(id)
		want += len(fig.Algorithms) * rates
	}
	if points != want {
		return fmt.Errorf("%s report has %d points, want %d", class, points, want)
	}
	if class == classFresh {
		f.report = raw
	}
	return nil
}

// sharedPointsEqual checks that every point of the fresh report appears in
// the overlap report with the same seed and result.
func sharedPointsEqual(freshRaw []byte, overlap *sim.Report) error {
	fresh, err := sim.ReadReport(bytes.NewReader(freshRaw))
	if err != nil {
		return err
	}
	type key struct {
		fig, alg string
		rate     float64
	}
	got := map[key]sim.PointReport{}
	for _, fig := range overlap.Figures {
		for _, s := range fig.Series {
			for _, p := range s.Points {
				got[key{fig.ID, s.Algorithm, p.InjectionRate}] = p
			}
		}
	}
	for _, fig := range fresh.Figures {
		for _, s := range fig.Series {
			for _, p := range s.Points {
				o, ok := got[key{fig.ID, s.Algorithm, p.InjectionRate}]
				if !ok || o.Seed != p.Seed || !reflect.DeepEqual(o.Result, p.Result) {
					return fmt.Errorf("overlap point %s/%s@%g differs from its fresh point", fig.ID, s.Algorithm, p.InjectionRate)
				}
			}
		}
	}
	return nil
}

// tally folds the outcomes into res and returns the successful ones by
// class.
func tally(res *result, outs []outcome) map[string][]outcome {
	byClass := map[string][]outcome{}
	for _, o := range outs {
		res.attempted++
		if o.err != nil {
			res.failed++
			res.fail(fmt.Errorf("%s %s: %w", o.class, o.item, o.err))
			continue
		}
		byClass[o.class] = append(byClass[o.class], o)
	}
	return byClass
}

func millis(from, to time.Time) float64 { return float64(to.Sub(from)) / float64(time.Millisecond) }

func latencies(outs []outcome) []float64 {
	out := make([]float64, len(outs))
	for i, o := range outs {
		out[i] = millis(o.start, o.end)
	}
	return out
}

// layerStats reads the server's layers from outside: the cache wrapper's
// counters and the scheduler's /v1/stats counters.
func layerStats(res *result, svc *service) error {
	tc := svc.timed
	tc.mu.Lock()
	res.set("simcache.get.calls", float64(tc.gets), "count")
	res.set("simcache.get.hit_ratio", float64(tc.hits)/float64(max(tc.gets, 1)), "ratio")
	res.set("simcache.get.self_s", float64(tc.getNanos)/1e9, "s")
	res.set("simcache.put.calls", float64(tc.puts), "count")
	res.set("simcache.put.bytes", float64(tc.putBytes), "bytes")
	res.set("simcache.put.self_s", float64(tc.putNanos)/1e9, "s")
	tc.mu.Unlock()

	var stats struct {
		Scheduler serve.SchedulerStats `json:"scheduler"`
	}
	req, err := http.NewRequest(http.MethodGet, svc.base+"/v1/stats", nil)
	if err != nil {
		return err
	}
	c := &client{svc: svc}
	if err := c.call(req, &stats); err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	res.set("serve.retries", float64(stats.Scheduler.Retries), "count")
	res.set("serve.rejected", float64(stats.Scheduler.RejectedFull+stats.Scheduler.RejectedRate), "count")
	return nil
}

// journalStats reads the server's job store after its run through the
// store's own List and Records, and sizes its directory.
func journalStats(res *result, svc *service) error {
	infos, err := svc.jobs.List(false)
	if err != nil {
		return err
	}
	records := 0
	for _, info := range infos {
		recs, _, err := svc.jobs.Records(info.Key)
		if err != nil {
			return err
		}
		records += len(recs)
	}
	var dirBytes int64
	err = filepath.WalkDir(svc.jobs.Dir(), func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err == nil {
			dirBytes += fi.Size()
		}
		return err
	})
	if err != nil {
		return err
	}
	res.set("jobstore.records", float64(records), "count")
	res.set("jobstore.records_per_job", float64(records)/float64(max(len(infos), 1)), "ratio")
	res.set("jobstore.dir_bytes", float64(dirBytes), "bytes")
	return nil
}

// specGroup is one job spec of a served plan: figures sharing their rates,
// and the figures' next rate, which the overlap request adds.
type specGroup struct {
	spec serve.JobSpec
	next float64
}

// specGroups expresses the workload's plan as job specs under seed: one
// per run of consecutive figures with the same rates.
func (w paperWorkload) specGroups(seed int64) []specGroup {
	var gs []specGroup
	for _, fs := range w.specs {
		full, _ := sim.FigureByID(fs.ID)
		next := full.Rates[len(fs.Rates)]
		if n := len(gs); n > 0 && slices.Equal(gs[n-1].spec.Rates, fs.Rates) && gs[n-1].next == next {
			gs[n-1].spec.Figures = append(gs[n-1].spec.Figures, fs.ID)
			continue
		}
		gs = append(gs, specGroup{serve.JobSpec{
			Figures:       []string{fs.ID},
			Rates:         fs.Rates,
			WarmupCycles:  w.warmup,
			MeasureCycles: w.measure,
			Seed:          seed,
		}, next})
	}
	return gs
}

// serveLayers serves the workload's plan through an in-process turnserved,
// wired as the daemon wires -cachedir, and reports the service's
// per-layer metrics. Each round, under its own seed, sends every spec of
// the plan fresh, then its byte-identical repeat, then the spec plus its
// figures' next rate as an overlap.
func (w paperWorkload) serveLayers(res *result, tr *tracer, cfg runConfig) error {
	svc, err := startService(cfg.workdir)
	if err != nil {
		return err
	}
	c := &client{svc: svc}
	for round := range servedRounds {
		for _, g := range w.specGroups(cfg.seed + int64(round)) {
			f := &freshSpec{spec: g.spec}
			f.body, _ = json.Marshal(g.spec) // a JobSpec always encodes
			c.do(classFresh, f, f.body)
			c.do(classRepeat, f, f.body)
			over := g.spec
			over.Rates = append(slices.Clone(g.spec.Rates), g.next)
			body, _ := json.Marshal(over)
			c.do(classOverlap, f, body)
		}
	}
	err = layerStats(res, svc)
	if err == nil {
		err = journalStats(res, svc)
	}
	if serr := svc.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}

	byClass := tally(res, c.out)
	simulated, cached := 0, 0
	for _, class := range classes {
		var submit, first, stream, rep []float64
		for _, o := range byClass[class] {
			start := int64(o.start.Sub(tr.epoch))
			id := tr.interval("serve.request."+class, o.item, 0, start, int64(o.end.Sub(tr.epoch)))
			tr.interval("serve.submit", o.item, id, start, int64(o.submitted.Sub(tr.epoch)))
			sid := tr.interval("serve.stream", o.item, id, int64(o.submitted.Sub(tr.epoch)), int64(o.done.Sub(tr.epoch)))
			tr.interval("serve.report", o.item, id, int64(o.done.Sub(tr.epoch)), int64(o.reported.Sub(tr.epoch)))
			submit = append(submit, millis(o.start, o.submitted))
			stream = append(stream, millis(o.submitted, o.done))
			rep = append(rep, millis(o.done, o.reported))
			if class == classRepeat {
				// A repeat's stream replays its fresh job's points; only
				// fresh and overlap requests reach the point cache.
				continue
			}
			tr.interval("serve.first_point", o.item, sid, int64(o.submitted.Sub(tr.epoch)), int64(o.firstPoint.Sub(tr.epoch)))
			first = append(first, millis(o.submitted, o.firstPoint))
			simulated += o.simulated
			cached += o.cached
		}
		prefix := "serve." + class + "."
		res.set(prefix+"submit_ms.p50", median(submit), "ms")
		res.set(prefix+"stream_ms.p50", median(stream), "ms")
		res.set(prefix+"report_ms.p50", median(rep), "ms")
		res.set(prefix+"latency_ms.p50", median(latencies(byClass[class])), "ms")
		if class != classRepeat {
			res.set(prefix+"first_point_ms.p50", median(first), "ms")
		}
	}
	res.set("serve.points_simulated", float64(simulated), "count")
	res.set("serve.points_cached", float64(cached), "count")
	return nil
}
