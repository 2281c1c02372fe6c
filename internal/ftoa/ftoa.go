// Package ftoa formats float64 values for the NDJSON trace wire.
// AppendShortest appends exactly the bytes strconv.AppendFloat(dst, f,
// 'g', -1, 64) appends, so its output parses back to f bit for bit and
// every surface that prints a frame (library, vbrd, fleet) agrees byte
// for byte. It finds the shortest digits of a normal value with
// Giulietti's Schubfach algorithm ("The Schubfach way to render
// doubles", 2020): three 64×128-bit products against a table of
// 126-bit powers of ten, one branch between the two candidate digit
// lengths, no loop. ±0, subnormals, ±Inf and NaN go to strconv, which
// the tests also use as the oracle for every input.
package ftoa

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"slices"
	"strconv"
)

// maxLen is the longest output of AppendShortest: a sign, 17 digits, a
// point and a three-digit exponent with its sign, as in
// -2.2250738585072014e-308. AppendShortest writes into that many bytes
// of dst's spare capacity.
const maxLen = 24

// The range of the decimal exponent k the digit search scales a normal
// float64 by: ⌊log₁₀(¾·2^q)⌋ at q = −1073 through ⌊log₁₀ 2^q⌋ at q = 971.
const (
	kMin = -324
	kMax = 292
)

// pow10 holds g = ⌊10^−k·2^−r⌋ + 1 for kMin ≤ k ≤ kMax as {high, low}
// 64-bit words, with r = flog2pow10(−k) − 125 so that 2^125 ≤ g <
// 2^126. g·2^r is 10^−k rounded up, even where 10^−k is exact, which
// the round-to-odd products in rop rely on.
var pow10 = powersOfTen()

func powersOfTen() (t [kMax - kMin + 1][2]uint64) {
	var b [16]byte
	for k := kMin; k <= kMax; k++ {
		num, den := big.NewInt(1), big.NewInt(1)
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(k, -k))), nil)
		if k < 0 {
			num = p
		} else {
			den = p
		}
		if r := flog2pow10(-k) - 125; r < 0 {
			num.Lsh(num, uint(-r))
		} else {
			den.Lsh(den, uint(r))
		}
		g := num.Quo(num, den)
		g.Add(g, big.NewInt(1)).FillBytes(b[:])
		t[k-kMin] = [2]uint64{binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])}
	}
	return t
}

// Fixed-point logarithms, exact (TestLogarithms) over the exponents a
// normal float64 reaches, q in [−1074, 971] and −k in [−kMax, −kMin]:
// flog10pow2(q) = ⌊q·log₁₀2⌋, flog10ThreeQuartersPow2(q) = ⌊log₁₀(¾·2^q)⌋
// and flog2pow10(e) = ⌊e·log₂10⌋.
func flog10pow2(q int) int              { return q * 661_971_961_083 >> 41 }
func flog10ThreeQuartersPow2(q int) int { return (q*661_971_961_083 - 274_743_187_321) >> 41 }
func flog2pow10(e int) int              { return e * 913_124_641_741 >> 38 }

// AppendShortest appends to dst the shortest decimal that parses back
// to f, formatted byte for byte as strconv.AppendFloat(dst, f, 'g', -1,
// 64) formats it. It allocates only when dst has fewer than 24 bytes of
// spare capacity. Unlike append and strconv, it may overwrite all 24
// bytes past len(dst), whatever the length of its output: rewriting a
// buffer in place with AppendShortest(b[:i], f) can change any of
// b[i:i+24], not only the bytes it returns.
//
//vbrlint:hotpath
func AppendShortest(dst []byte, f float64) []byte {
	fb := math.Float64bits(f)
	be := fb >> 52 & 0x7ff
	if be-1 >= 0x7fe { // be = 0: ±0 and subnormals; be = 0x7ff: ±Inf and NaN
		return strconv.AppendFloat(dst, f, 'g', -1, 64)
	}
	d, k := shortest(int(be)-1075, fb&(1<<52-1)|1<<52)

	// |f| = d·10^k with 16 or 17 digits in d; scale d to exactly 17,
	// |f| = lead.rest × 10^e, and spell rest as two eight-digit words.
	if d < 1e16 {
		d *= 10
		k--
	}
	lead := byte(d/1e16) + '0'
	rest := d % 1e16
	hi, lo := digits8(rest/1e8), digits8(rest%1e8)
	nd := 17 - bits.LeadingZeros64(lo)/8 // significant digits
	if lo == 0 {
		nd -= bits.LeadingZeros64(hi) / 8
	}
	hi |= 0x3030303030303030 // '0' in every byte
	lo |= 0x3030303030303030
	e := k + 16

	n := len(dst)
	dst = slices.Grow(dst, maxLen)
	o := (*[maxLen]byte)(dst[n : n+maxLen])
	o[0] = '-'
	p := int(fb >> 63) // the digits start after the sign, if any
	var w int          // bytes written
	switch {
	case e < -4 || e >= 6: // %e: d.ddde±dd
		o[p] = lead
		o[p+1] = '.'
		binary.LittleEndian.PutUint64(o[p+2:], hi)
		binary.LittleEndian.PutUint64(o[p+10:], lo)
		i := p + nd + 1
		if nd == 1 {
			i = p + 1 // no point
		}
		o[i], o[i+1] = 'e', '+'
		if e < 0 {
			o[i+1], e = '-', -e
		}
		if e >= 100 {
			o[i+2] = byte(e/100) + '0'
			e %= 100
			i++
		}
		o[i+2], o[i+3] = byte(e/10)+'0', byte(e%10)+'0'
		w = i + 4
	case e >= 0: // %f with e+1 ≤ 6 integer digits: ddd.ddd
		// The digits go one byte up, and the first eight are rewritten
		// in one word: the integer digits in place, the point, the rest
		// one byte up.
		binary.LittleEndian.PutUint64(o[p+2:], hi)
		binary.LittleEndian.PutUint64(o[p+10:], lo)
		head, m := uint64(lead)|hi<<8, uint64(1)<<(8*e+8)-1
		binary.LittleEndian.PutUint64(o[p:], head&m|(head&^m)<<8|'.'<<(8*e+8))
		w = p + e + 1 // whole digits only: the zeros past nd are in place
		if nd > e+1 {
			w = p + nd + 1
		}
	default: // %f below 1: 0.000ddd
		binary.LittleEndian.PutUint64(o[p:], 0x3030303030302e30) // "0.000000"
		i := p + 1 - e
		o[i] = lead
		binary.LittleEndian.PutUint64(o[i+1:], hi)
		binary.LittleEndian.PutUint64(o[i+9:], lo)
		w = i + nd
	}
	return dst[:n+w]
}

// shortest returns the decimal d·10^k that Schubfach picks for the
// normal value c·2^q, 2^52 ≤ c < 2^53: of the decimals inside the
// interval that rounds to c·2^q, one with the fewest digits, and of
// those the closest to c·2^q, the even one on a tie. That is the
// decimal strconv prints.
func shortest(q int, c uint64) (uint64, int) {
	// Scaled by 4·10^−k, the value and its interval's ends are
	// vb, vbl and vbr, with two fraction bits and the rest rounded to
	// odd. The ends are midpoints to the neighbouring floats and belong
	// to the interval when c is even (round half to even).
	out := c & 1
	cb := c << 2
	cbl, k := cb-2, flog10pow2(q)
	// The float below a power of two is half as far, except below the
	// smallest normal, where the subnormals keep its spacing.
	if c == 1<<52 && q > -1074 {
		cbl, k = cb-1, flog10ThreeQuartersPow2(q)
	}
	h := q + flog2pow10(-k) + 3 // in [3, 6]: cb<<h < 2^61
	g := &pow10[k-kMin]
	vb, vbl, vbr := rop(g, cb<<h), rop(g, cbl<<h), rop(g, (cb+2)<<h)

	// The interval is at least 1 and less than 10 units of 10^k wide, so
	// at 10^(k+1) it holds at most one decimal, sp or tp.
	s := vb >> 2
	sp := s / 10 * 10
	tp := sp + 10
	if upin, wpin := vbl+out <= sp<<2, tp<<2+out <= vbr; upin != wpin {
		if upin {
			return sp, k
		}
		return tp, k
	}
	// Otherwise the digits end at 10^k, where s and t = s+1 bracket the
	// value: take the one inside, or the closer if both are.
	t := s + 1
	if uin, win := vbl+out <= s<<2, t<<2+out <= vbr; uin != win {
		if uin {
			return s, k
		}
		return t, k
	}
	if cmp := int64(vb - (s+t)<<1); cmp < 0 || cmp == 0 && s&1 == 0 {
		return s, k
	}
	return t, k
}

// rop returns g·cp/2^128 rounded down, with its lowest bit set when the
// product has a fraction of at least 2^−64 (round to odd). g·cp exceeds
// the exact scaled value by less than 2^−67 of a unit, so an exact
// value keeps its lowest bit clear; that an inexact one lies farther
// than that from an integer is part of Giulietti's proof.
func rop(g *[2]uint64, cp uint64) uint64 {
	x1, _ := bits.Mul64(g[1], cp)
	y1, y0 := bits.Mul64(g[0], cp)
	z, carry := bits.Add64(y0, x1, 0)
	return (y1 + carry) | (z|-z)>>63
}

// digits8 spells x < 10^8 as eight decimal digit values, 0 to 9, one
// per byte, the most significant in the lowest byte: it splits x into
// 4-digit halves in 32-bit lanes, each of those into 2-digit quarters
// in 16-bit lanes, then those into digits, dividing every lane at once
// by a multiply and shift that is exact below the lane's bound.
func digits8(x uint64) uint64 {
	x = x/10000 | x%10000<<32
	y := x * 10486 >> 20 & 0x0000007f_0000007f // ⌊x/100⌋, x < 10^4
	x = y | (x-y*100)<<16
	y = x * 103 >> 10 & 0x000f_000f_000f_000f // ⌊x/10⌋, x < 100
	return y | (x-y*10)<<8
}
