package queue

import "fmt"

// This file implements the CBR-side of the paper's motivating comparison
// (§1: "Forcing the transmission rate to be constant results in delay,
// wasted bandwidth, and modulation of the video quality") and the exact
// zero-loss allocation that anchors the Fig. 14 curves. Both are one
// problem: a fluid FIFO served at C bits/s with buffer B + T·C/8 bytes
// loses nothing iff S_j − S_i ≤ B + C/8·(Δt·(j − i) + T) for every
// i < j, where S_k is the cumulative arrival process — the arrival-curve
// condition of network calculus (Cruz 1991) — so the least such C is one
// max-slope query, zeroLossRate.

// CBRRate returns the minimum constant channel rate (bits/s) at which
// the workload can be carried through a source smoothing buffer without
// ever exceeding maxDelay seconds of buffering delay — the rate a
// circuit-switched (CBR) connection would have to reserve for the same
// video. maxDelay = 0 requires the peak rate.
//
// Backlog stays within rate/8·maxDelay exactly when the zero-loss dual
// with delay maxDelay allows the rate; the result is floored at the mean
// rate, which a finite trace's dual falls below once maxDelay spans it.
func CBRRate(w Workload, maxDelay float64) (float64, error) {
	if !(maxDelay >= 0) {
		return 0, fmt.Errorf("queue: max delay must be ≥ 0, got %v", maxDelay)
	}
	c, err := zeroLossRate(w, 0, maxDelay)
	if err != nil {
		return 0, err
	}
	return max(w.MeanRate(), c), nil
}

// ZeroLossCapacityExact returns the exact minimum capacity (bits/s) for
// which the discrete-time fluid queue with buffer Q bytes loses nothing:
//
//	C* = 8/Δt · max_{0 ≤ i < j ≤ n} (S_j − S_i − Q) / (j − i),
//
// where S_k is the cumulative arrival process — the zero-loss dual with
// no delay term, free of the bisection tolerance that MinCapacityCtx
// carries.
func ZeroLossCapacityExact(w Workload, bufferBytes float64) (float64, error) {
	if bufferBytes < 0 {
		return 0, fmt.Errorf("queue: buffer must be ≥ 0, got %v", bufferBytes)
	}
	return zeroLossRate(w, bufferBytes, 0)
}

// zeroLossRate is the zero-loss dual of the fluid queue: the least
// capacity (bits/s) at which a buffer of bufferBytes + delaySec·C/8
// never overflows,
//
//	C* = 8/Δt · max_{0 ≤ i < j ≤ n} (S_j − S_i − B) / ((j − i) + T/Δt).
//
// The pairwise maximum is a max-slope query from each point
// (j + T/Δt, S_j − B) to the lower convex hull of {(i, S_i) : i < j},
// maintained incrementally — O(n log n) overall. Every query point lies
// right of the hull, so slopes to hull vertices are unimodal and a
// ternary search finds the best one. With T = 0 the denominators are
// the integer gaps themselves, bit for bit.
func zeroLossRate(w Workload, bufferBytes, delaySec float64) (float64, error) {
	if err := w.Validate(); err != nil {
		return 0, err
	}
	tau := delaySec / w.Interval
	type pt struct {
		x int
		y float64
	}
	slopeTo := func(j int, yj float64, h pt) float64 {
		return (yj - h.y) / (float64(j-h.x) + tau)
	}
	hull := []pt{{0, 0}} // lower convex hull of (i, S_i)
	best, sj := 0.0, 0.0 // C* ≥ 0 always (empty queue); S_j
	for j := 1; j <= len(w.Bytes); j++ {
		aj := w.Bytes[j-1]
		sj += aj
		// With B ≥ 0 every slope from j is at most a_j or a slope from
		// j − 1 (it is their mediant, or (a_j − B)/(1 + T/Δt) for vertex
		// j − 1), so only a_j > best can raise best. That holds up to
		// rounding, so T = 0 still queries every j and keeps
		// ZeroLossCapacityExact's bits.
		if tau <= 0 || aj > best {
			yj := sj - bufferBytes
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
		}
		p := pt{j, sj}
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
	return best * 8 / w.Interval, nil
}
