package queue

import (
	"fmt"
	"math"
)

// This file implements the CBR-side of the paper's motivating comparison
// (§1: "Forcing the transmission rate to be constant results in delay,
// wasted bandwidth, and modulation of the video quality") and the exact
// zero-loss allocation that anchors the Fig. 14 curves.

// CBRRate returns the minimum constant channel rate (bits/s) at which
// the workload can be carried through a source smoothing buffer without
// ever exceeding maxDelay seconds of buffering delay — the rate a
// circuit-switched (CBR) connection would have to reserve for the same
// video. maxDelay = 0 requires the peak rate.
//
// The feasibility test is the exact backlog recursion; the rate is found
// by bisection between the mean and peak rates (backlog is monotone in
// the service rate).
//
//vbrlint:ignore ctxcheck single bounded pass over the workload with a fixed smoothing window
func CBRRate(w Workload, maxDelay float64) (float64, error) {
	if err := w.Validate(); err != nil {
		return 0, err
	}
	if maxDelay < 0 {
		return 0, fmt.Errorf("queue: max delay must be ≥ 0, got %v", maxDelay)
	}
	mean, peak := w.MeanRate(), w.PeakRate()
	//vbrlint:ignore floateq exact-zero guard: an all-zero workload has exactly zero mean rate
	if mean == 0 {
		return 0, nil
	}
	feasible := func(rateBps float64) bool {
		service := rateBps / 8 * w.Interval
		maxBacklog := rateBps / 8 * maxDelay
		var q float64
		for _, a := range w.Bytes {
			q = math.Max(0, q+a-service)
			if q > maxBacklog {
				return false
			}
		}
		return true
	}
	if feasible(mean) {
		return mean, nil
	}
	lo, hi := mean, peak
	if !feasible(hi) {
		// Possible when maxDelay is 0 and arrivals exceed service within
		// one interval due to discretization; nudge up.
		hi = peak * (1 + 1e-9)
		for !feasible(hi) {
			hi *= 1.01
		}
	}
	for i := 0; i < 60 && hi-lo > 1e-6*hi; i++ {
		mid := (lo + hi) / 2
		if feasible(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// ZeroLossCapacityExact returns the exact minimum capacity (bits/s) for
// which the discrete-time fluid queue with buffer Q bytes loses nothing:
//
//	C* = 8/Δt · max_{0 ≤ i < j ≤ n} (S_j − S_i − Q) / (j − i),
//
// where S_k is the cumulative arrival process. The pairwise maximum is a
// max-slope query from each point (j, S_j − Q) to the lower convex hull
// of {(i, S_i)}, maintained incrementally — O(n log n) overall, and free
// of the bisection tolerance that MinCapacityCtx carries.
//
//vbrlint:ignore ctxcheck exact max-burst dual: one bounded O(n) pass over the workload
func ZeroLossCapacityExact(w Workload, bufferBytes float64) (float64, error) {
	if err := w.Validate(); err != nil {
		return 0, err
	}
	if bufferBytes < 0 {
		return 0, fmt.Errorf("queue: buffer must be ≥ 0, got %v", bufferBytes)
	}
	n := len(w.Bytes)
	// Cumulative arrivals S_0..S_n (S_0 = 0).
	s := make([]float64, n+1)
	for i, a := range w.Bytes {
		s[i+1] = s[i] + a
	}

	// Lower convex hull of (i, S_i), queried for the max slope to
	// (j, S_j - Q). The best hull vertex for a max-slope query from a
	// point to the right is found by binary search on the hull's slope
	// sequence (slopes to hull vertices are unimodal).
	type pt struct {
		x int
		y float64
	}
	hull := make([]pt, 0, n+1)
	push := func(p pt) {
		for len(hull) >= 2 {
			a, b := hull[len(hull)-2], hull[len(hull)-1]
			// Remove b if it is above segment a–p (keeps the hull lower).
			if (b.y-a.y)*float64(p.x-a.x) >= (p.y-a.y)*float64(b.x-a.x) {
				hull = hull[:len(hull)-1]
			} else {
				break
			}
		}
		hull = append(hull, p)
	}
	slopeTo := func(j int, yj float64, h pt) float64 {
		return (yj - h.y) / float64(j-h.x)
	}

	best := 0.0 // C* ≥ 0 always (empty queue)
	push(pt{0, s[0]})
	for j := 1; j <= n; j++ {
		yj := s[j] - bufferBytes
		// Ternary search over the hull for the max slope.
		lo, hi := 0, len(hull)-1
		for hi-lo > 2 {
			m1 := lo + (hi-lo)/3
			m2 := hi - (hi-lo)/3
			if slopeTo(j, yj, hull[m1]) < slopeTo(j, yj, hull[m2]) {
				lo = m1 + 1
			} else {
				hi = m2 - 1
			}
		}
		for k := lo; k <= hi; k++ {
			if v := slopeTo(j, yj, hull[k]); v > best {
				best = v
			}
		}
		push(pt{j, s[j]})
	}
	return best * 8 / w.Interval, nil
}
