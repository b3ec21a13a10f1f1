package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"turnmodel/internal/sim"
)

// checkPoint applies the harness invariants every fault-free turn-model
// point satisfies at any seed and load: no deadlock, a finite positive
// mean latency over a nonempty sample, and nothing dropped.
func checkPoint(r sim.Result) error {
	switch {
	case r.Deadlocked:
		return fmt.Errorf("%s/%s@%g deadlocked", r.Algorithm, r.Pattern, r.InjectionRate)
	case r.Packets <= 0:
		return fmt.Errorf("%s/%s@%g measured no packets", r.Algorithm, r.Pattern, r.InjectionRate)
	case math.IsNaN(r.AvgLatencyUs) || math.IsInf(r.AvgLatencyUs, 0) || r.AvgLatencyUs <= 0:
		return fmt.Errorf("%s/%s@%g latency %v", r.Algorithm, r.Pattern, r.InjectionRate, r.AvgLatencyUs)
	case r.DeliveredFraction != 1 || r.Dropped != 0:
		return fmt.Errorf("%s/%s@%g delivered fraction %v with faults off", r.Algorithm, r.Pattern, r.InjectionRate, r.DeliveredFraction)
	}
	return nil
}

// reportPoints checks every point of a report, returning how many points
// it holds and how many fail.
func reportPoints(rep *sim.Report) (points, failed int, firstErr error) {
	for _, fig := range rep.Figures {
		for _, series := range fig.Series {
			for _, p := range series.Points {
				points++
				if err := checkPoint(p.Result); err != nil {
					failed++
					if firstErr == nil {
						firstErr = err
					}
				}
			}
		}
	}
	return points, failed, firstErr
}

// statsDigest hashes a report's simulated statistics: the report with its
// timings (per-point wall_ms, total wall and CPU) and its worker count
// removed, which depend on the host and not on the simulation.
func statsDigest(rep *sim.Report) (string, error) {
	norm := *rep
	norm.Config.Jobs = 0
	norm.Totals.Workers = 0
	norm.Totals.WallMillis = 0
	norm.Totals.CPUMillis = 0
	norm.Figures = make([]sim.FigureReport, len(rep.Figures))
	for fi, fig := range rep.Figures {
		fig.Series = make([]sim.SeriesReport, len(fig.Series))
		for si, series := range rep.Figures[fi].Series {
			series.Points = append([]sim.PointReport(nil), series.Points...)
			for pi := range series.Points {
				series.Points[pi].WallMillis = 0
			}
			fig.Series[si] = series
		}
		norm.Figures[fi] = fig
	}
	var buf bytes.Buffer
	if err := norm.WriteJSON(&buf); err != nil {
		return "", fmt.Errorf("encoding report: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

//go:embed digests.json
var digestsJSON []byte

// recordedDigests maps workload → seed → the statistics digest that seed
// produced when it was recorded. A seed without an entry is checked only
// by the invariants.
var recordedDigests = func() map[string]map[string]string {
	var m map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		panic(fmt.Sprintf("perfbench: digests.json: %v", err))
	}
	return m
}()

// checkDigest compares a run's digest with the one recorded for its
// workload and seed, if any.
func checkDigest(workload string, seed int64, digest string) error {
	want, ok := recordedDigests[workload][strconv.FormatInt(seed, 10)]
	if !ok || want == digest {
		return nil
	}
	return fmt.Errorf("%s seed %d: statistics digest %s, recorded %s", workload, seed, digest, want)
}
