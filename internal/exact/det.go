package exact

import (
	"math/big"
	"math/bits"
	"sync"
)

// PolyDet computes the determinant of a square matrix of polynomials
// exactly, by multi-modular arithmetic:
//
//   - each row is scaled by the LCM of its coefficient denominators, which
//     turns the matrix into an integer one whose determinant is the wanted
//     one times the product of the row scales;
//   - every coefficient of that integer determinant is bounded by the
//     product of the rows' 1-norms (expanding the product of the row sums
//     covers every term of the Leibniz sum), so the number of primes
//     below 2^62 whose product exceeds twice the bound is fixed in
//     advance;
//   - modulo each prime the determinant is evaluated by Gaussian
//     elimination at the D+1 points 0…D, D the sum of the rows' largest
//     degrees, and Newton-interpolated;
//   - the residues are combined by CRT into the symmetric range and
//     divided by the row scales.
//
// Every step is exact, so the result is the mathematically exact
// determinant, trimmed to its degree (empty for a zero determinant). An
// empty matrix has determinant 1, and a 1×1 matrix returns its entry.
// The work is O(primes · D · n³) word operations on one goroutine; the
// µA741's 49-node admittance determinant takes well under a second.
func PolyDet(m [][]RatPoly) RatPoly {
	n := len(m)
	if n == 0 {
		return NewRatPoly(1)
	}
	for _, row := range m {
		if len(row) != n {
			panic("exact: non-square matrix")
		}
	}
	if n == 1 {
		if m[0][0] == nil {
			return RatPoly{}
		}
		return m[0][0]
	}
	im := newIntMatrix(m)
	if im == nil {
		return RatPoly{} // a zero row
	}
	// The modulus must exceed twice the coefficient bound for the
	// symmetric residues to be the coefficients themselves.
	need := new(big.Int).Lsh(im.bound, 1)
	primes := primesAbove(need)

	d := im.deg
	acc := make([]*big.Int, d+1) // CRT residues, in [0, modulus)
	for k := range acc {
		acc[k] = new(big.Int)
	}
	modulus := big.NewInt(1)
	bp, r, t := new(big.Int), new(big.Int), new(big.Int)
	for _, p := range primes {
		coef := im.detPoly(p)
		// Garner step: acc += modulus·((c − acc)·modulus⁻¹ mod p).
		bp.SetUint64(p)
		inv := invMod(r.Mod(modulus, bp).Uint64(), p)
		for k, c := range coef {
			a := r.Mod(acc[k], bp).Uint64()
			t.SetUint64(mulMod(subMod(c, a, p), inv, p))
			acc[k].Add(acc[k], t.Mul(t, modulus))
		}
		modulus.Mul(modulus, bp)
	}
	half := new(big.Int).Rsh(modulus, 1)
	top := -1
	for k, c := range acc {
		if c.Cmp(half) > 0 {
			c.Sub(c, modulus)
		}
		if c.Sign() != 0 {
			top = k
		}
	}
	det := make(RatPoly, top+1)
	for k := range det {
		det[k] = new(big.Rat).SetFrac(acc[k], im.scale)
	}
	return det
}

// intMatrix is a polynomial matrix with its rows scaled to integer
// coefficients.
type intMatrix struct {
	n     int
	entry [][]*big.Int // n·n entries, row-major, ascending powers of s
	scale *big.Int     // product of the row scales
	bound *big.Int     // product of the row 1-norms
	deg   int          // sum of the rows' largest degrees
}

// newIntMatrix scales each row of m by the LCM of its coefficient
// denominators. It returns nil when a row is identically zero.
func newIntMatrix(m [][]RatPoly) *intMatrix {
	n := len(m)
	im := &intMatrix{n: n, entry: make([][]*big.Int, n*n), scale: big.NewInt(1), bound: big.NewInt(1)}
	g, q := new(big.Int), new(big.Int)
	for i, row := range m {
		lcm := big.NewInt(1)
		rowDeg := -1
		for _, e := range row {
			for k, c := range e {
				if c == nil || c.Sign() == 0 {
					continue
				}
				rowDeg = max(rowDeg, k)
				lcm.Mul(lcm, q.Quo(c.Denom(), g.GCD(nil, nil, lcm, c.Denom())))
			}
		}
		if rowDeg < 0 {
			return nil
		}
		norm := new(big.Int)
		for j, e := range row {
			d := e.Degree()
			if d < 0 {
				continue
			}
			ints := make([]*big.Int, d+1)
			for k := range ints {
				v := new(big.Int)
				if c := e[k]; c != nil && c.Sign() != 0 {
					v.Mul(c.Num(), q.Quo(lcm, c.Denom()))
				}
				ints[k] = v
				norm.Add(norm, g.Abs(v))
			}
			im.entry[i*n+j] = ints
		}
		im.scale.Mul(im.scale, lcm)
		im.bound.Mul(im.bound, norm)
		im.deg += rowDeg
	}
	return im
}

// detPoly returns the coefficients of the integer determinant mod p,
// ascending.
func (im *intMatrix) detPoly(p uint64) []uint64 {
	bp, r := new(big.Int).SetUint64(p), new(big.Int)
	res := make([][]uint64, len(im.entry)) // entry coefficients mod p
	for i, e := range im.entry {
		res[i] = make([]uint64, len(e))
		for k, c := range e {
			res[i][k] = r.Mod(c, bp).Uint64()
		}
	}
	d := im.deg
	work := make([]uint64, im.n*im.n)
	c := make([]uint64, d+1) // det at 0…D, then Newton coefficients
	for x := 0; x <= d; x++ {
		for i, e := range res {
			// Horner at x; the entries are low-degree, usually ≤ 1.
			var v uint64
			for k := len(e) - 1; k >= 0; k-- {
				v = addMod(mulMod(v, uint64(x), p), e[k], p)
			}
			work[i] = v
		}
		c[x] = detMod(work, im.n, p)
	}
	// Newton divided differences on the nodes 0…D: the nodes of the
	// j-th difference are j apart.
	for j := 1; j <= d; j++ {
		inv := invMod(uint64(j), p)
		for i := d; i >= j; i-- {
			c[i] = mulMod(subMod(c[i], c[i-1], p), inv, p)
		}
	}
	// Expand Σ c_i·Π_{l<i}(s − l) by Horner from the top.
	out := make([]uint64, d+1)
	out[0] = c[d]
	for i := d - 1; i >= 0; i-- {
		// out ← out·(s − i) + c_i
		neg := (p - uint64(i)) % p
		for k := d - i; k >= 1; k-- {
			out[k] = addMod(out[k-1], mulMod(out[k], neg, p), p)
		}
		out[0] = addMod(mulMod(out[0], neg, p), c[i], p)
	}
	return out
}

// detMod returns the determinant of the n×n row-major matrix a mod p by
// Gaussian elimination with row pivoting, destroying a.
func detMod(a []uint64, n int, p uint64) uint64 {
	det := uint64(1)
	for k := 0; k < n; k++ {
		piv := -1
		for i := k; i < n; i++ {
			if a[i*n+k] != 0 {
				piv = i
				break
			}
		}
		if piv < 0 {
			return 0
		}
		rk := a[k*n : k*n+n]
		if piv != k {
			rp := a[piv*n : piv*n+n]
			for j := k; j < n; j++ {
				rk[j], rp[j] = rp[j], rk[j]
			}
			det = p - det
		}
		det = mulMod(det, rk[k], p)
		inv := invMod(rk[k], p)
		for i := k + 1; i < n; i++ {
			ri := a[i*n : i*n+n]
			if ri[k] == 0 {
				continue
			}
			f := mulMod(ri[k], inv, p)
			for j := k + 1; j < n; j++ {
				if rk[j] != 0 {
					ri[j] = subMod(ri[j], mulMod(f, rk[j], p), p)
				}
			}
		}
	}
	return det
}

func addMod(a, b, p uint64) uint64 {
	s := a + b
	if s >= p {
		s -= p
	}
	return s
}

func subMod(a, b, p uint64) uint64 {
	if a >= b {
		return a - b
	}
	return a + p - b
}

func mulMod(a, b, p uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return bits.Rem64(hi, lo, p)
}

// invMod returns a⁻¹ mod p for a in [1, p) by the extended Euclidean
// algorithm; p < 2^62 keeps every intermediate within int64.
func invMod(a, p uint64) uint64 {
	t, nt := int64(0), int64(1)
	r, nr := int64(p), int64(a)
	for nr != 0 {
		q := r / nr
		t, nt = nt, t-q*nt
		r, nr = nr, r-q*nr
	}
	if t < 0 {
		t += int64(p)
	}
	return uint64(t)
}

// modPrimes caches the primes below 2^62 in descending order; PolyDet
// takes a prefix of it.
var modPrimes struct {
	sync.Mutex
	list []uint64
}

// primesAbove returns the shortest prefix of the descending primes below
// 2^62 whose product exceeds bound.
func primesAbove(bound *big.Int) []uint64 {
	modPrimes.Lock()
	defer modPrimes.Unlock()
	prod := big.NewInt(1)
	bp := new(big.Int)
	for k := 0; ; k++ {
		if k == len(modPrimes.list) {
			c := uint64(1)<<62 - 1
			if k > 0 {
				c = modPrimes.list[k-1] - 2
			}
			for !bp.SetUint64(c).ProbablyPrime(0) { // exact below 2^64
				c -= 2
			}
			modPrimes.list = append(modPrimes.list, c)
		}
		if prod.Cmp(bound) > 0 {
			return modPrimes.list[:k:k]
		}
		prod.Mul(prod, bp.SetUint64(modPrimes.list[k]))
	}
}
