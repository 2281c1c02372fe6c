package lrd

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"vbr/internal/errs"
)

// maxFuzzFrames caps how much of a corpus entry a robustness target
// decodes, so fuzzing stays a crash hunt rather than a stress test.
const maxFuzzFrames = 8 << 10

// fuzzSeries reinterprets raw fuzz bytes as a float64 series — every
// bit pattern is admitted, including NaN, ±Inf and subnormals, which is
// exactly the hostile input the estimators must reject gracefully.
func fuzzSeries(data []byte) []float64 {
	n := len(data) / 8
	if n > maxFuzzFrames {
		n = maxFuzzFrames
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
	}
	return xs
}

// estimatorCorpus returns the degenerate shapes every estimator must
// survive, encoded as fuzz input: empty, too-short, constant, NaN- and
// Inf-poisoned, and a plausible well-behaved series.
func estimatorCorpus() [][]byte {
	enc := func(xs []float64) []byte {
		b := make([]byte, 8*len(xs))
		for i, v := range xs {
			binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(v))
		}
		return b
	}
	constant := make([]float64, 512)
	for i := range constant {
		constant[i] = 4.25
	}
	poisoned := make([]float64, 512)
	for i := range poisoned {
		poisoned[i] = float64(i % 17)
	}
	poisoned[100] = math.NaN()
	poisoned[200] = math.Inf(1)
	poisoned[300] = math.Inf(-1)
	healthy := make([]float64, 1024)
	s := 0.0
	for i := range healthy {
		s = 0.9*s + float64((i*2654435761)%1000)/1000 - 0.5
		healthy[i] = s
	}
	return [][]byte{{}, enc([]float64{1, 2, 3}), enc(constant), enc(poisoned), enc(healthy)}
}

// seedEstimatorCorpus adds estimatorCorpus to a one-argument target.
func seedEstimatorCorpus(f *testing.F) {
	for _, data := range estimatorCorpus() {
		f.Add(data)
	}
}

// checkEstimator is the shared oracle: the estimator must not panic,
// and any failure must wrap the errs.ErrInvalidSeries sentinel so
// callers can distinguish "bad series" from infrastructure errors.
func checkEstimator(t *testing.T, name string, h float64, err error) {
	t.Helper()
	if err != nil {
		if !errors.Is(err, errs.ErrInvalidSeries) {
			t.Fatalf("%s error does not wrap errs.ErrInvalidSeries: %v", name, err)
		}
		return
	}
	if math.IsNaN(h) || math.IsInf(h, 0) {
		t.Fatalf("%s returned non-finite Ĥ = %v without an error", name, h)
	}
}

func FuzzVarianceTime(f *testing.F) {
	seedEstimatorCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := EstimateBy(EstVarianceTime, fuzzSeries(data))
		checkEstimator(t, EstVarianceTime, h, err)
	})
}

func FuzzRS(f *testing.F) {
	seedEstimatorCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := EstimateBy(EstRS, fuzzSeries(data))
		checkEstimator(t, EstRS, h, err)
	})
}

func FuzzWhittle(f *testing.F) {
	seedEstimatorCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := EstimateBy(EstWhittle, fuzzSeries(data))
		checkEstimator(t, EstWhittle, h, err)
	})
}

// FuzzMAVAR also feeds each series to OnlineMAVAR.Add in blocks whose
// lengths sizes picks, two bytes (little-endian, plus one) per block in
// turn; no sizes means one block of the whole series. The state and the
// Result must be bit-identical to feeding one value at a time, whatever
// the values.
func FuzzMAVAR(f *testing.F) {
	for _, data := range estimatorCorpus() {
		for _, sizes := range [][]byte{nil, {0, 0}, {4, 0}, {255, 15}, {2, 0, 200, 1}} {
			f.Add(data, sizes)
		}
	}
	f.Fuzz(func(t *testing.T, data, sizes []byte) {
		xs := fuzzSeries(data)
		one, blocks := NewOnlineMAVAR(MaxMavarTau(len(xs))), NewOnlineMAVAR(MaxMavarTau(len(xs)))
		for _, v := range xs {
			one.Add(v)
		}
		for i, rest := 0, xs; len(rest) > 0; i++ {
			b := len(rest)
			if len(sizes) >= 2 {
				j := 2 * i % (len(sizes) &^ 1)
				b = min(b, 1+int(binary.LittleEndian.Uint16(sizes[j:])))
			}
			blocks.Add(rest[:b]...)
			rest = rest[b:]
		}
		sameMAVAR(t, one, blocks)

		h, err := EstimateBy(EstMAVAR, xs)
		checkEstimator(t, EstMAVAR, h, err)
		if err != nil {
			return
		}
		// On success the structured result must be coherent too.
		r, err := MAVAR(xs, 0, 0)
		if err != nil {
			t.Fatalf("MAVAR failed after EstimateBy succeeded: %v", err)
		}
		if len(r.Points) < 2 || r.FitLo > r.FitHi || r.Octaves < 2 {
			t.Fatalf("degenerate MAVAR result: %+v", r)
		}
	})
}

// sameMAVAR fails unless a and b hold bit-identical accumulators and
// snapshot to bit-identical Results (or both fail to).
func sameMAVAR(t *testing.T, a, b *OnlineMAVAR) {
	t.Helper()
	bits := math.Float64bits
	if a.n != b.n || bits(a.phase) != bits(b.phase) || len(a.levels) != len(b.levels) {
		t.Fatalf("n/phase/octaves %d/%v/%d, one at a time %d/%v/%d", b.n, b.phase, len(b.levels), a.n, a.phase, len(a.levels))
	}
	for i := range a.levels {
		la, lb := &a.levels[i], &b.levels[i]
		same := la.tau == lb.tau && la.f == lb.f && la.blocks == lb.blocks &&
			la.count == lb.count && bits(la.sumSq) == bits(lb.sumSq)
		for j := range la.ring {
			same = same && bits(la.ring[j]) == bits(lb.ring[j])
		}
		if !same {
			t.Fatalf("octave τ=%d: %+v, one at a time %+v", la.tau, *lb, *la)
		}
	}
	ra, erra := a.Result(0, 0)
	rb, errb := b.Result(0, 0)
	if (erra == nil) != (errb == nil) {
		t.Fatalf("Result errors %v, one at a time %v", errb, erra)
	}
	if erra != nil {
		return
	}
	same := len(ra.Points) == len(rb.Points) && ra.FitLo == rb.FitLo && ra.FitHi == rb.FitHi &&
		ra.Octaves == rb.Octaves && bits(ra.Mu) == bits(rb.Mu) && bits(ra.H) == bits(rb.H)
	for i := 0; same && i < len(ra.Points); i++ {
		pa, pb := ra.Points[i], rb.Points[i]
		same = pa.Tau == pb.Tau && pa.Windows == pb.Windows && bits(pa.ModVar) == bits(pb.ModVar)
	}
	if !same {
		t.Fatalf("Result %+v, one at a time %+v", *rb, *ra)
	}
}
