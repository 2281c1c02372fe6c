package ftoa

import (
	"bytes"
	"math"
	"math/big"
	"math/rand/v2"
	"strconv"
	"testing"
)

// checker compares AppendShortest with strconv, the oracle, reusing
// its buffers so a corpus of millions runs without garbage.
type checker struct {
	t         testing.TB
	got, want []byte
}

func (c *checker) check(f float64) {
	c.want = strconv.AppendFloat(c.want[:0], f, 'g', -1, 64)
	c.got = AppendShortest(c.got[:0], f)
	if !bytes.Equal(c.got, c.want) {
		c.t.Fatalf("%#016x: AppendShortest %q, strconv %q", math.Float64bits(f), c.got, c.want)
	}
	if len(c.got) > maxLen {
		c.t.Fatalf("%#016x: %q is %d bytes, more than %d", math.Float64bits(f), c.got, len(c.got), maxLen)
	}
}

func (c *checker) checkBits(u uint64) { c.check(math.Float64frombits(u)) }

// TestAppendShortestCorpus holds AppendShortest to strconv where the
// digit search and the layout have their edges, then on random bits.
func TestAppendShortestCorpus(t *testing.T) {
	c := &checker{t: t}
	const sign = 1 << 63
	// Every power of two, both signs, with both neighbours: every binary
	// exponent and so every table entry, the half-width interval below
	// each power of two, and the exponent-bit edges (0 and 0x7ff).
	for be := uint64(0); be < 1<<11; be++ {
		for _, u := range []uint64{be << 52, be<<52 | sign} {
			c.checkBits(u - 1)
			c.checkBits(u)
			c.checkBits(u + 1)
		}
	}
	// Short decimals: integers and their scaled forms.
	for i := 1; i <= 1_000_000; i++ {
		x := float64(i)
		c.check(x)
		c.check(x / 10)
		c.check(x / 100)
		c.check(x / 1000)
		c.check(x * 1e-4)
	}
	// Every power of ten with its neighbours, and a thousand floats on
	// each side of where 'g' switches between %e and %f.
	for e := -330; e <= 310; e++ {
		u := math.Float64bits(math.Pow10(e))
		c.checkBits(u - 1)
		c.checkBits(u)
		c.checkBits(u + 1)
	}
	for _, x := range []float64{1e-5, 1e-4, 1e6} {
		u := math.Float64bits(x)
		for i := uint64(0); i < 1000; i++ {
			c.checkBits(u - i)
			c.checkBits(u + i)
			c.checkBits((u - i) | sign)
		}
	}
	for _, x := range []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.MaxFloat64, -math.MaxFloat64, 0x1p-1022, -0x1p-1022,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	} {
		c.check(x)
	}
	n := 10_000_000
	if testing.Short() {
		n = 100_000
	}
	rng := rand.New(rand.NewPCG(1994, 23))
	for range n {
		c.checkBits(rng.Uint64())
	}
}

// TestLogarithms pins the fixed-point logarithms exact, by integer
// comparison, over the exponents shortest reaches: q of every normal
// float64 and −k of every table entry.
func TestLogarithms(t *testing.T) {
	pow := func(b, e int64) *big.Rat { // b^e
		p := new(big.Int).Exp(big.NewInt(b), big.NewInt(max(e, -e)), nil)
		if e < 0 {
			return new(big.Rat).SetFrac(big.NewInt(1), p)
		}
		return new(big.Rat).SetInt(p)
	}
	// floorLog reports whether b^k ≤ x < b^(k+1).
	floorLog := func(k int, b int64, x *big.Rat) bool {
		return pow(b, int64(k)).Cmp(x) <= 0 && x.Cmp(pow(b, int64(k+1))) < 0
	}
	for q := -1074; q <= 971; q++ {
		x := pow(2, int64(q))
		if k := flog10pow2(q); !floorLog(k, 10, x) {
			t.Errorf("flog10pow2(%d) = %d", q, k)
		}
		x.Mul(x, big.NewRat(3, 4))
		if k := flog10ThreeQuartersPow2(q); !floorLog(k, 10, x) {
			t.Errorf("flog10ThreeQuartersPow2(%d) = %d", q, k)
		}
	}
	for e := -kMax; e <= -kMin; e++ {
		if f := flog2pow10(e); !floorLog(f, 2, pow(10, int64(e))) {
			t.Errorf("flog2pow10(%d) = %d", e, f)
		}
	}
}

func TestAppendShortestAllocs(t *testing.T) {
	buf := make([]byte, 0, maxLen)
	for _, x := range []float64{27791, -0.000123, 1.2345678901234567e-300, 5e-324, math.NaN()} {
		if a := testing.AllocsPerRun(100, func() { buf = AppendShortest(buf[:0], x) }); a != 0 {
			t.Errorf("AppendShortest(%v) allocates %v times with %d bytes spare", x, a, cap(buf))
		}
	}
}

// FuzzAppendShortest: any bit pattern formats as strconv formats it,
// in at most maxLen bytes.
func FuzzAppendShortest(f *testing.F) {
	for _, u := range []uint64{0, 1, 0x3ff0000000000000, 0x7fefffffffffffff, 0x0010000000000000, 0x7ff8000000000001, 0xc0dd4c2a3e1a6a4c} {
		f.Add(u)
	}
	f.Fuzz(func(t *testing.T, u uint64) {
		(&checker{t: t}).checkBits(u)
	})
}
