package experiments

import (
	"context"
	"fmt"

	"vbr/internal/queue"
)

// This file measures the §5 loss metrics under deterministic server
// faults: the channel capacity is sized for P_l ≤ 10⁻³ on a healthy
// server, then the same workload is replayed against escalating
// schedules of capacity-degradation and outage episodes. Because the
// schedules are pure data derived from a seed, every row is exactly
// reproducible — the scenario doubles as an end-to-end test of the
// fault-injection machinery.

// ExtFaultsRow is one fault scenario and its measured loss.
type ExtFaultsRow struct {
	Scenario  string
	Degraded  float64 // fraction of intervals inside an episode
	Outages   int     // number of full-outage episodes
	Pl, PlWES float64
}

// ExtFaultsResult compares loss metrics across fault severities at a
// fixed, healthy-server capacity allocation.
type ExtFaultsResult struct {
	CapacityBps float64
	TmaxSec     float64
	Rows        []ExtFaultsRow
}

// extFaultScenario pairs a label with a generation config; a nil config
// is the healthy-server baseline.
type extFaultScenario struct {
	name string
	seed uint64
	cfg  *queue.FaultConfig
}

// extFaultScenarios returns the escalating severity ladder.
func extFaultScenarios() []extFaultScenario {
	return []extFaultScenario{
		{name: "healthy"},
		{name: "rare brownouts", seed: 1,
			cfg: &queue.FaultConfig{MeanGap: 4000, MeanLength: 40, OutageProb: 0, MinFactor: 0.5}},
		{name: "frequent brownouts", seed: 2,
			cfg: &queue.FaultConfig{MeanGap: 800, MeanLength: 40, OutageProb: 0, MinFactor: 0.5}},
		{name: "brownouts + outages", seed: 3,
			cfg: &queue.FaultConfig{MeanGap: 800, MeanLength: 40, OutageProb: 0.3, MinFactor: 0.5}},
	}
}

// ExtFaultsCtx runs the fault-severity ladder on the suite's trace
// (single source, frame granularity).
func (s *Suite) ExtFaultsCtx(ctx context.Context) (*ExtFaultsResult, error) {
	w := queue.Workload{Bytes: s.Trace.Frames, Interval: 1 / s.Trace.FrameRate}
	const tmax = 0.002
	// A one-source Mux carries the trace bit for bit.
	mux, err := queue.NewMuxFromConfig(queue.MuxConfig{Trace: s.Trace, N: 1})
	if err != nil {
		return nil, err
	}
	capBps, err := queue.MinCapacityAtCtx(ctx, mux, queue.LossTarget{Pl: 1e-3}, tmax, false)
	if err != nil {
		return nil, fmt.Errorf("experiments: ExtFaults capacity sizing: %w", err)
	}
	res := &ExtFaultsResult{CapacityBps: capBps, TmaxSec: tmax}
	for _, sc := range extFaultScenarios() {
		var faults *queue.FaultSchedule
		if sc.cfg != nil {
			faults, err = queue.GenerateFaults(sc.seed, len(w.Bytes), *sc.cfg)
			if err != nil {
				return nil, fmt.Errorf("experiments: ExtFaults %s: %w", sc.name, err)
			}
		}
		r, err := queue.Simulate(w, capBps, tmax*capBps/8, queue.Options{Faults: faults})
		if err != nil {
			return nil, fmt.Errorf("experiments: ExtFaults %s: %w", sc.name, err)
		}
		row := ExtFaultsRow{Scenario: sc.name, Pl: r.Pl, PlWES: r.PlWES}
		if faults != nil {
			row.Degraded = float64(faults.DegradedIntervals(len(w.Bytes))) / float64(len(w.Bytes))
			for _, e := range faults.Episodes {
				//vbrlint:ignore floateq Factor 0 is the exact outage sentinel assigned from config literals, never computed
				if e.Factor == 0 {
					row.Outages++
				}
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Format renders the fault ladder.
func (r *ExtFaultsResult) Format() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Scenario,
			fmt.Sprintf("%.2f%%", row.Degraded*100),
			fmt.Sprintf("%d", row.Outages),
			fmt.Sprintf("%.2e", row.Pl),
			fmt.Sprintf("%.2e", row.PlWES),
		})
	}
	return table(
		fmt.Sprintf("Extension: loss under server faults (C=%.3f Mb/s, T_max=%.0f ms)",
			r.CapacityBps/1e6, r.TmaxSec*1000),
		[]string{"scenario", "degraded", "outages", "Pl", "Pl-WES"}, rows)
}
