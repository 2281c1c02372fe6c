// Package queue implements the trace-driven network simulation of §5 of
// the paper (Fig. 13): N multiplexed VBR video sources feeding a single
// FIFO queue with finite buffer Q and fixed channel capacity C, measured
// by the overall cell loss rate P_l and the loss rate of the worst errored
// second P_l-WES. On top of the simulator it provides the resource
// allocation analyses of Figs. 14–17: minimum-capacity search, Q–C
// tradeoff curves, knee detection, statistical multiplexing gain, and the
// windowed error process.
package queue

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"vbr/internal/errs"
)

// CellBytes is the payload of one fixed-size cell (ATM: 48 bytes).
const CellBytes = 48

// Workload is an arrival process: bytes offered per fixed interval.
type Workload struct {
	Bytes    []float64 // bytes arriving in each interval
	Interval float64   // interval duration in seconds
}

// Validate checks workload consistency. Failures match
// errs.ErrInvalidWorkload.
//
//vbrlint:ignore ctxcheck bounded validation scan over the workload
func (w Workload) Validate() error {
	if len(w.Bytes) == 0 {
		return fmt.Errorf("queue: empty workload: %w", errs.ErrInvalidWorkload)
	}
	if !(w.Interval > 0) {
		return fmt.Errorf("queue: interval must be positive, got %v: %w", w.Interval, errs.ErrInvalidWorkload)
	}
	for i, v := range w.Bytes {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("queue: invalid arrival %v at %d: %w", v, i, errs.ErrInvalidWorkload)
		}
	}
	return nil
}

// TotalBytes returns the sum of all arrivals.
func (w Workload) TotalBytes() float64 {
	var s float64
	for _, v := range w.Bytes {
		s += v
	}
	return s
}

// MeanRate returns the average offered load in bits per second.
func (w Workload) MeanRate() float64 {
	return w.TotalBytes() * 8 / (float64(len(w.Bytes)) * w.Interval)
}

// PeakRate returns the peak per-interval offered load in bits per second.
func (w Workload) PeakRate() float64 {
	peak := 0.0
	for _, v := range w.Bytes {
		if v > peak {
			peak = v
		}
	}
	return peak * 8 / w.Interval
}

// Result summarizes one simulation run.
type Result struct {
	TotalBytes float64
	LostBytes  float64
	Pl         float64 // overall byte loss rate
	PlWES      float64 // loss rate in the worst errored second
	MaxBacklog float64 // peak queue occupancy in bytes
	// WindowLoss is the per-window loss-rate series when a window was
	// requested (Fig. 17's running loss process); nil otherwise.
	WindowLoss []float64
	// CombosTotal/CombosUsed report graceful degradation of a
	// multiplexer average: how many lag combinations were attempted and
	// how many survived to be averaged. Zero outside AverageLossCtx runs.
	CombosTotal int
	CombosUsed  int
	// ComboErrors lists the failures of excluded lag combinations.
	ComboErrors []error
}

// Options selects simulation granularity and instrumentation.
type Options struct {
	// WindowIntervals, when positive, records the per-window loss rate
	// over consecutive windows of this many intervals.
	WindowIntervals int
	// SecondIntervals is the number of intervals per "second" used for
	// the worst-errored-second statistic. When zero, it is derived from
	// Interval (round(1/Interval)), clamped to ≥ 1.
	SecondIntervals int
	// Seed drives RandomSpacing cell placement in SimulateCells.
	Seed uint64
	// Faults, when non-nil, applies a deterministic schedule of
	// capacity-degradation and outage episodes to the server.
	Faults *FaultSchedule
}

// Simulate runs the discrete-time fluid FIFO queue: during each interval
// the arrivals drain simultaneously at capacity; whatever exceeds the
// buffer is lost. capacity is in bits per second, buffer in bytes.
//
// The fluid model matches the paper's observation that cells are produced
// continuously ("we would expect real coders to be pipelined") rather
// than as frame-sized batches. Use SimulateCells for the cell-exact
// ablation.
//
//vbrlint:ignore ctxcheck O(n) fluid recursion per run; cancellation happens at run granularity via AverageLossCtx by design
func Simulate(w Workload, capacityBps, bufferBytes float64, opts Options) (*Result, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if !(capacityBps > 0) {
		return nil, fmt.Errorf("queue: capacity must be positive, got %v", capacityBps)
	}
	if bufferBytes < 0 {
		return nil, fmt.Errorf("queue: buffer must be ≥ 0, got %v", bufferBytes)
	}
	if err := opts.Faults.Validate(); err != nil {
		return nil, err
	}
	servicePerInterval := capacityBps / 8 * w.Interval

	secN := opts.SecondIntervals
	if secN <= 0 {
		secN = int(math.Round(1 / w.Interval))
		if secN < 1 {
			secN = 1
		}
	}

	res := &Result{}
	var q float64
	var secArr, secLost, worstNum, worstDen float64
	var winArr, winLost float64
	for i, a := range w.Bytes {
		res.TotalBytes += a
		service := servicePerInterval
		if opts.Faults != nil {
			service *= opts.Faults.FactorAt(i)
		}
		net := q + a - service
		var lost float64
		if net > bufferBytes {
			lost = net - bufferBytes
			q = bufferBytes
		} else if net > 0 {
			q = net
		} else {
			q = 0
		}
		res.LostBytes += lost
		if q > res.MaxBacklog {
			res.MaxBacklog = q
		}

		secArr += a
		secLost += lost
		if (i+1)%secN == 0 || i == len(w.Bytes)-1 {
			//vbrlint:ignore floateq worstDen 0 is the exact not-yet-seen sentinel; any real window stores a positive sum
			if secArr > 0 && (worstDen == 0 || secLost/secArr > worstNum/worstDen) {
				worstNum, worstDen = secLost, secArr
			}
			secArr, secLost = 0, 0
		}

		if opts.WindowIntervals > 0 {
			winArr += a
			winLost += lost
			if (i+1)%opts.WindowIntervals == 0 || i == len(w.Bytes)-1 {
				rate := 0.0
				if winArr > 0 {
					rate = winLost / winArr
				}
				res.WindowLoss = append(res.WindowLoss, rate)
				winArr, winLost = 0, 0
			}
		}
	}
	if res.TotalBytes > 0 {
		res.Pl = res.LostBytes / res.TotalBytes
	}
	if worstDen > 0 {
		res.PlWES = worstNum / worstDen
	}
	return res, nil
}

// Spacing selects how cells are placed within an interval in the
// cell-exact simulator.
type Spacing int

const (
	// UniformSpacing spaces an interval's cells evenly across it — the
	// pipelined-coder assumption of §5.1.
	UniformSpacing Spacing = iota
	// StartOfInterval delivers the whole interval's cells back to back at
	// the interval start — the batch-arrival assumption the paper argues
	// against ("in no case do all the cells of a frame arrive together"),
	// kept as an ablation.
	StartOfInterval
	// RandomSpacing places each cell independently and uniformly at
	// random within its interval — the paper's second spacing variant
	// ("using uniform and random spacing of cells within the slice or
	// frame"). Cells are sorted within the interval before queueing.
	// Randomness is drawn from Options.Seed.
	RandomSpacing
)

// SimulateCells runs a cell-exact FIFO simulation: each interval's bytes
// become ⌈bytes/48⌉ cells placed according to spacing; the queue drains
// continuously at capacity; a cell arriving to a buffer with less than one
// cell of free space is dropped whole. This is the high-fidelity ablation
// for the fluid model, relevant when the buffer holds only a few cells.
//
//vbrlint:ignore ctxcheck O(n) fluid recursion per run; cancellation happens at run granularity via AverageLossCtx by design
func SimulateCells(w Workload, capacityBps, bufferBytes float64, spacing Spacing, opts Options) (*Result, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if !(capacityBps > 0) {
		return nil, fmt.Errorf("queue: capacity must be positive, got %v", capacityBps)
	}
	if bufferBytes < 0 {
		return nil, fmt.Errorf("queue: buffer must be ≥ 0, got %v", bufferBytes)
	}
	if err := opts.Faults.Validate(); err != nil {
		return nil, err
	}
	drainPerSec := capacityBps / 8

	secN := opts.SecondIntervals
	if secN <= 0 {
		secN = int(math.Round(1 / w.Interval))
		if secN < 1 {
			secN = 1
		}
	}

	res := &Result{}
	var q float64 // backlog in bytes
	lastT := 0.0
	var secArr, secLost, worstNum, worstDen float64
	var winArr, winLost float64
	var rng *rand.Rand
	var randTimes []float64
	if spacing == RandomSpacing {
		rng = rand.New(rand.NewPCG(opts.Seed, 0xce115))
	}

	for i, bytes := range w.Bytes {
		res.TotalBytes += bytes
		cells := int(math.Ceil(bytes / CellBytes))
		t0 := float64(i) * w.Interval
		if spacing == RandomSpacing && cells > 0 {
			randTimes = randTimes[:0]
			for c := 0; c < cells; c++ {
				randTimes = append(randTimes, t0+rng.Float64()*w.Interval)
			}
			sort.Float64s(randTimes)
		}
		var lost float64
		for c := 0; c < cells; c++ {
			var t float64
			switch spacing {
			case UniformSpacing:
				t = t0 + (float64(c)+0.5)/float64(cells)*w.Interval
			case StartOfInterval:
				t = t0
			case RandomSpacing:
				t = randTimes[c]
			default:
				return nil, fmt.Errorf("queue: unknown spacing %d", spacing)
			}
			// Drain since the last event (episode-aware when faulted).
			if opts.Faults != nil {
				q = math.Max(0, q-opts.Faults.drainBetween(lastT, t, drainPerSec, w.Interval))
			} else {
				q = math.Max(0, q-drainPerSec*(t-lastT))
			}
			lastT = t
			if q+CellBytes > bufferBytes {
				lost += CellBytes
				continue
			}
			q += CellBytes
			if q > res.MaxBacklog {
				res.MaxBacklog = q
			}
		}
		// Clamp accounted loss to the interval's actual bytes (the last
		// cell is partially padded).
		if lost > bytes {
			lost = bytes
		}
		res.LostBytes += lost

		secArr += bytes
		secLost += lost
		if (i+1)%secN == 0 || i == len(w.Bytes)-1 {
			//vbrlint:ignore floateq worstDen 0 is the exact not-yet-seen sentinel; any real window stores a positive sum
			if secArr > 0 && (worstDen == 0 || secLost/secArr > worstNum/worstDen) {
				worstNum, worstDen = secLost, secArr
			}
			secArr, secLost = 0, 0
		}
		if opts.WindowIntervals > 0 {
			winArr += bytes
			winLost += lost
			if (i+1)%opts.WindowIntervals == 0 || i == len(w.Bytes)-1 {
				rate := 0.0
				if winArr > 0 {
					rate = winLost / winArr
				}
				res.WindowLoss = append(res.WindowLoss, rate)
				winArr, winLost = 0, 0
			}
		}
	}
	if res.TotalBytes > 0 {
		res.Pl = res.LostBytes / res.TotalBytes
	}
	if worstDen > 0 {
		res.PlWES = worstNum / worstDen
	}
	return res, nil
}
