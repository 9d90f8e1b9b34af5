// Package dft provides the discrete Fourier transform machinery used by
// polynomial interpolation on the unit circle.
//
// Given the values P(s_k) of an order-n polynomial at the K ≥ n+1 points
// s_k = e^(2πjk/K), the coefficients follow from the inverse DFT (paper
// eq. 5):
//
//	p̂_i = (1/K) Σ_k P(s_k) · e^(−2πjik/K)
//
// Values arrive as extended-range complex numbers (the determinant of a
// scaled admittance matrix can leave float64 range); the transform factors
// out the largest magnitude, runs the sum at O(1) magnitude in complex128,
// and reapplies the factor, so no precision is lost to intermediate
// under/overflow.
package dft

import (
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
	"unsafe"

	"repro/internal/xmath"
)

// UnitCirclePoints returns the K-th roots of unity e^(2πjk/K),
// k = 0..K−1 — the interpolation points recommended by Vlach/Singhal for
// numerical stability. The lower half-circle points are produced as
// exact bitwise conjugates of the upper half (s_{K−k} = conj(s_k)), so
// the Hermitian mirroring scheme (HermitianInverse) evaluates at exactly
// the same point set a full sweep would.
func UnitCirclePoints(k int) []complex128 {
	if k <= 0 {
		panic("dft: point count must be positive")
	}
	pts := make([]complex128, k)
	for i := 0; i <= k/2; i++ {
		angle := 2 * math.Pi * float64(i) / float64(k)
		pts[i] = cmplx.Rect(1, angle)
	}
	for i := k/2 + 1; i < k; i++ {
		pts[i] = cmplx.Conj(pts[k-i])
	}
	// Snap the exactly-representable points so that e.g. s_0 is exactly 1
	// and, for even K, s_{K/2} is exactly −1.
	pts[0] = 1
	if k%2 == 0 {
		pts[k/2] = -1
	}
	return pts
}

// HermitianHalf returns the number of non-redundant unit-circle samples
// of a length-K spectrum with Hermitian symmetry: ⌊K/2⌋+1 (capped at K).
// A polynomial with real coefficients satisfies P(conj s) = conj P(s),
// so the values at points ⌊K/2⌋+1..K−1 are the conjugates of values
// 1..⌈K/2⌉−1 and need not be computed.
func HermitianHalf(k int) int {
	if k <= 0 {
		panic("dft: point count must be positive")
	}
	h := k/2 + 1
	if h > k {
		h = k
	}
	return h
}

// MirrorHermitian expands a half-spectrum (the first HermitianHalf(k)
// values of a length-k Hermitian spectrum) to the full k values by
// conjugation: out[k−i] = conj(half[i]).
func MirrorHermitian(half []xmath.XComplex, k int) []xmath.XComplex {
	return MirrorHermitianInto(make([]xmath.XComplex, k), half, k)
}

// MirrorHermitianInto is MirrorHermitian writing into dst (len k),
// allocating nothing.
func MirrorHermitianInto(dst, half []xmath.XComplex, k int) []xmath.XComplex {
	if len(half) != HermitianHalf(k) {
		panic("dft: half-spectrum length does not match point count")
	}
	if len(dst) != k {
		panic("dft: mirror destination length does not match point count")
	}
	copy(dst, half)
	for i := len(half); i < k; i++ {
		dst[i] = half[k-i].Conj()
	}
	return dst
}

// HermitianInverse computes the length-k inverse DFT of a spectrum given
// by its non-redundant half (see HermitianHalf): the missing values are
// mirrored by conjugation before the transform runs. The outputs are the
// coefficients of the interpolated real-coefficient polynomial; their
// imaginary parts measure the transform's own round-off, exactly as with
// Inverse on a fully computed spectrum.
func HermitianInverse(half []xmath.XComplex, k int) []xmath.XComplex {
	return Inverse(MirrorHermitian(half, k))
}

// HermitianInverseInto is HermitianInverse writing the k coefficients
// into dst, with every intermediate (the mirrored spectrum, the
// normalized values, the transform workspace) drawn from s. After the
// scratch has grown to this k once, the call allocates nothing.
func HermitianInverseInto(dst []xmath.XComplex, half []xmath.XComplex, k int, s *Scratch) []xmath.XComplex {
	full := MirrorHermitianInto(s.full(k), half, k)
	return InverseInto(dst, full, s)
}

// Inverse computes the inverse DFT of extended-range values, returning K
// extended-range outputs. The inputs are magnitude-normalized before the
// complex128 transform runs; a radix-2 FFT is used when K is a power of
// two and the direct O(K²) sum otherwise (K is at most a few hundred in
// this problem domain, so the direct path is cheap).
func Inverse(values []xmath.XComplex) []xmath.XComplex {
	if len(values) == 0 {
		return nil
	}
	return InverseInto(make([]xmath.XComplex, len(values)), values, new(Scratch))
}

// InverseInto is Inverse writing into dst (len(values) entries), with
// the normalization buffer and transform workspace drawn from s. The
// numerical path is identical to Inverse — same normalization, same
// transform — so the outputs are bit-identical; only the storage is
// reused. After s has grown to this length once, the call allocates
// nothing.
func InverseInto(dst []xmath.XComplex, values []xmath.XComplex, s *Scratch) []xmath.XComplex {
	k := len(values)
	if k == 0 {
		return dst[:0]
	}
	if len(dst) != k {
		panic("dft: inverse destination length does not match value count")
	}
	// Factor out the largest magnitude.
	var maxAbs xmath.XFloat
	for _, v := range values {
		if a := v.AbsX(); a.CmpAbs(maxAbs) > 0 {
			maxAbs = a
		}
	}
	if maxAbs.Zero() {
		for i := range dst {
			dst[i] = xmath.XComplex{}
		}
		return dst
	}
	scaleInv := xmath.FromXFloat(maxAbs)
	norm := s.norm(k)
	for i, v := range values {
		norm[i] = v.Div(scaleInv).Complex128()
	}
	spec := transformInto(s.spec(k), norm, -1, s)
	invK := complex(1/float64(k), 0)
	for i, c := range spec {
		dst[i] = xmath.FromComplex(c * invK).Mul(scaleInv)
	}
	return dst
}

// InverseComplex is the plain complex128 inverse DFT (with 1/K scaling),
// used by the unscaled baseline method and by tests.
func InverseComplex(values []complex128) []complex128 {
	k := len(values)
	if k == 0 {
		return nil
	}
	spec := transform(values, -1)
	out := make([]complex128, k)
	invK := complex(1/float64(k), 0)
	for i, c := range spec {
		out[i] = c * invK
	}
	return out
}

// Forward computes Σ_k x_k e^(+2πjik/K) — the evaluation of the
// polynomial with coefficients x at the unit-circle points s_i. No 1/K
// factor is applied, so InverseComplex(Forward(x)) = x.
func Forward(values []complex128) []complex128 {
	if len(values) == 0 {
		return nil
	}
	return transform(values, +1)
}

// bluesteinMin is the smallest non-power-of-two length routed through
// the chirp-z transform. Below it the direct O(K²) sum wins: Bluestein
// pays three power-of-two FFTs of length ≥ 2K−1 plus chirp setup, which
// only amortizes once K² outgrows that.
const bluesteinMin = 32

// transform dispatches between the radix-2 FFT (power-of-two lengths),
// the Bluestein chirp-z transform (longer non-power-of-two lengths, e.g.
// the ubiquitous K = 49 frames) and the direct O(K²) sum (short odd
// lengths). sign (+1 or −1) selects the twiddle exponent sign; no 1/K
// factor is applied.
func transform(values []complex128, sign float64) []complex128 {
	return transformInto(make([]complex128, len(values)), values, sign, new(Scratch))
}

// transformInto is transform writing into dst (len(values), must not
// alias values), drawing workspace from s.
func transformInto(dst, values []complex128, sign float64, s *Scratch) []complex128 {
	n := len(values)
	if n&(n-1) == 0 {
		return fftRadix2Into(dst, values, sign)
	}
	if n >= bluesteinMin {
		return bluesteinInto(dst, values, sign, s)
	}
	return directInto(dst, values, sign, s)
}

// Scratch holds the reusable buffers of the Into-variant transforms:
// the normalization and spectrum vectors, the two power-of-two Bluestein
// convolution buffers, the direct-path twiddle table and the mirrored
// Hermitian spectrum. Buffers grow to the high-water mark and are then
// reused, so a frame loop running one K allocates only on its first
// frame. The zero value is ready to use; a Scratch is not safe for
// concurrent use.
type Scratch struct {
	normBuf []complex128
	specBuf []complex128
	convBuf []complex128 // Bluestein chirped input / circular convolution
	freqBuf []complex128 // Bluestein frequency-domain product
	twBuf   []complex128 // direct-path twiddle table
	twLen   int          // length the twiddle table is built for (0 = none)
	twSign  float64      // sign the twiddle table is built for
	fullBuf []xmath.XComplex
}

// Bytes returns the size of the scratch's buffers, for callers that
// bound how much idle scratch they keep.
func (s *Scratch) Bytes() int {
	c, x := int(unsafe.Sizeof(complex128(0))), int(unsafe.Sizeof(xmath.XComplex{}))
	return c*(cap(s.normBuf)+cap(s.specBuf)+cap(s.convBuf)+cap(s.freqBuf)+cap(s.twBuf)) + x*cap(s.fullBuf)
}

func growC(buf *[]complex128, n int) []complex128 {
	if cap(*buf) < n {
		*buf = make([]complex128, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func (s *Scratch) norm(n int) []complex128 { return growC(&s.normBuf, n) }
func (s *Scratch) spec(n int) []complex128 { return growC(&s.specBuf, n) }

func (s *Scratch) full(n int) []xmath.XComplex {
	if cap(s.fullBuf) < n {
		s.fullBuf = make([]xmath.XComplex, n)
	}
	s.fullBuf = s.fullBuf[:n]
	return s.fullBuf
}

// twiddles returns the direct-path table e^(sign·2πjm/K), rebuilt only
// when k or sign changed since the last call.
func (s *Scratch) twiddles(k int, sign float64) []complex128 {
	if s.twLen == k && s.twSign == sign && len(s.twBuf) == k {
		return s.twBuf
	}
	tw := growC(&s.twBuf, k)
	for m := range tw {
		tw[m] = cmplx.Rect(1, sign*2*math.Pi*float64(m)/float64(k))
	}
	s.twLen, s.twSign = k, sign
	return tw
}

// bluesteinTables holds the input-independent part of a chirp-z
// transform of one (length, sign) pair: the chirp sequence and the FFT
// of the conjugate-chirp convolution kernel. Both are read-only after
// construction and shared across calls — the interpolation loop runs the
// same K for dozens of frames, so this removes one of the three FFTs and
// all twiddle setup from the steady state.
type bluesteinTables struct {
	m     int
	chirp []complex128 // c_k = e^(sign·πj·k²/n), k = 0..n−1
	fb    []complex128 // FFT_+ of the kernel b, b_{±k mod m} = conj(c_k)
}

var bluesteinCache sync.Map // key int: +n for sign>0, −n for sign<0

func bluesteinPlan(n int, sign float64) *bluesteinTables {
	key := n
	if sign < 0 {
		key = -n
	}
	if v, ok := bluesteinCache.Load(key); ok {
		return v.(*bluesteinTables)
	}
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	tb := &bluesteinTables{m: m, chirp: make([]complex128, n)}
	for k := range tb.chirp {
		// Reduce k² mod 2n before forming the angle, so twiddle accuracy
		// does not degrade with n.
		q := (int64(k) * int64(k)) % int64(2*n)
		tb.chirp[k] = cmplx.Rect(1, sign*math.Pi*float64(q)/float64(n))
	}
	// b holds conj(c_k) at both k and −k (mod m): the chirp is even in k.
	b := make([]complex128, m)
	b[0] = cmplx.Conj(tb.chirp[0])
	for k := 1; k < n; k++ {
		c := cmplx.Conj(tb.chirp[k])
		b[k] = c
		b[m-k] = c
	}
	tb.fb = fftRadix2(b, +1)
	// First store wins, so concurrent builders agree on one table set.
	actual, _ := bluesteinCache.LoadOrStore(key, tb)
	return actual.(*bluesteinTables)
}

// bluestein computes the length-n DFT for arbitrary n in O(n log n) via
// the chirp-z identity ij = (i² + j² − (i−j)²)/2 (Bluestein 1970):
//
//	out_i = c_i · Σ_j (x_j·c_j)·conj(c_{i−j}),  c_k = e^(sign·πj·k²/n)
//
// i.e. a linear convolution with the conjugate chirp, done as a circular
// convolution of power-of-two length m ≥ 2n−1 through radix-2 FFTs (two
// per call; the kernel FFT is cached in bluesteinPlan).
func bluestein(x []complex128, sign float64) []complex128 {
	return bluesteinInto(make([]complex128, len(x)), x, sign, new(Scratch))
}

// bluesteinInto is bluestein writing into out (len(x)), with the two
// length-m convolution buffers drawn from s. The FFT sequence and every
// rounded intermediate match the allocating path exactly.
func bluesteinInto(out, x []complex128, sign float64, s *Scratch) []complex128 {
	n := len(x)
	tb := bluesteinPlan(n, sign)
	a := growC(&s.convBuf, tb.m)
	for k := range a {
		a[k] = 0
	}
	for k, v := range x {
		a[k] = v * tb.chirp[k]
	}
	fa := fftRadix2Into(growC(&s.freqBuf, tb.m), a, +1)
	for i := range fa {
		fa[i] *= tb.fb[i]
	}
	// a's contents are consumed; reuse it as the convolution output.
	conv := fftRadix2Into(a, fa, -1)
	invM := complex(1/float64(tb.m), 0)
	for k := 0; k < n; k++ {
		out[k] = conv[k] * invM * tb.chirp[k]
	}
	return out
}

// direct is the O(K²) transform.
func direct(values []complex128, sign float64) []complex128 {
	return directInto(make([]complex128, len(values)), values, sign, new(Scratch))
}

// directInto is direct writing into out, with the twiddle table cached
// in s across calls of the same (K, sign).
func directInto(out, values []complex128, sign float64, s *Scratch) []complex128 {
	k := len(values)
	// The twiddle table e^(sign·2πjm/K); index products mod K walk it
	// without accumulating angle rounding.
	tw := s.twiddles(k, sign)
	for i := 0; i < k; i++ {
		var sum complex128
		idx := 0
		for j := 0; j < k; j++ {
			sum += values[j] * tw[idx]
			idx += i
			if idx >= k {
				idx -= k
			}
		}
		out[i] = sum
	}
	return out
}

// fftRadix2 is an iterative radix-2 Cooley-Tukey FFT. sign selects the
// twiddle exponent sign; no 1/K factor is applied. len(values) must be a
// power of two.
func fftRadix2(values []complex128, sign float64) []complex128 {
	return fftRadix2Into(make([]complex128, len(values)), values, sign)
}

// fftRadix2Into is fftRadix2 writing into out (len(values), must not
// alias values: the bit-reversal permutation copies through it).
func fftRadix2Into(out, values []complex128, sign float64) []complex128 {
	n := len(values)
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i, v := range values {
		out[bits.Reverse64(uint64(i))>>shift] = v
	}
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		step := cmplx.Rect(1, sign*2*math.Pi/float64(size))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for off := 0; off < half; off++ {
				a := out[start+off]
				b := out[start+off+half] * w
				out[start+off] = a + b
				out[start+off+half] = a - b
				w *= step
			}
		}
	}
	return out
}
