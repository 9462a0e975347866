package analysis

import (
	"math"
	"math/rand"
)

// Bounds of zipfTable.
const (
	// zipfTableCap caps the ranks the table holds, so its memory stays
	// bounded for any imax; a draw at a rank past it takes the slow path.
	zipfTableCap = 4096
	// zipfBand is the relative guard band around every table constant: a
	// draw within it of a constant takes the slow path.
	zipfBand = 1e-9
)

// zipfTable draws exactly what rand.Zipf draws: the same rank for the same
// stream of r.Float64() values, one per loop turn, without the math.Exp and
// math.Log calls of almost every draw.
//
// rand.Zipf (Hörmann and Derflinger's rejection-inversion) maps a uniform r
// to ur = hxm + r·hx0minusHxm, inverts h at ur to x, rounds x to the rank
// k, and accepts k when k−x ≤ s or when ur ≥ h(k+0.5) − (k+v)^−q; otherwise
// it draws again. h and its inverse increase, so each step compares ur
// with a constant of k: ur rounds to k for ur in [h(k−0.5), h(k+0.5)), the
// first test holds iff ur ≥ h(k−s), and the second compares ur with its own
// constant. The table holds the three constants of every rank below the
// cap, each widened into a guard band that absorbs rounding in their
// evaluation and in rand.Zipf's. A draw whose ur lies outside every band is
// decided by comparisons; every other draw — inside a band, at a rank past
// the table, or outside the index — runs rand.Zipf's own loop body, with
// the same expressions in the same order, on the same ur.
type zipfTable struct {
	r *rand.Rand
	// rand.Zipf's fields, computed as rand.NewZipf computes them.
	v, q, s, oneminusQ, oneminusQinv, hxm, hx0minusHxm float64
	// rank[k] holds rank k's constants, k < n = len(rank)-2. rank[n] holds
	// only the band around h(n−0.5), the upper edge of rank n−1, and
	// rank[n+1] a +Inf lower edge that stops the scan.
	rank []zipfRank
	// start[i] is the lowest rank an ur in index bucket i can round to;
	// bucket i covers ur in urLo + [i, i+1)/scale.
	start       []uint16
	urLo, scale float64
}

// zipfRank holds one rank's constants, each as the edges of its guard band.
type zipfRank struct {
	loBelow, loAbove         float64 // h(k−0.5), the rank's lowest ur
	firstBelow, firstAbove   float64 // h(k−s): the first test holds above
	secondBelow, secondAbove float64 // h(k+0.5) − exp(−log(k+v)·q)
}

// newZipfTable returns a sampler of the distribution rand.NewZipf(r, s, v,
// imax) describes, or nil where rand.NewZipf returns nil.
func newZipfTable(r *rand.Rand, s, v float64, imax uint64) *zipfTable {
	if s <= 1.0 || v < 1 {
		return nil
	}
	z := &zipfTable{r: r, v: v, q: s}
	z.oneminusQ = 1.0 - z.q
	z.oneminusQinv = 1.0 / z.oneminusQ
	z.hxm = z.h(float64(imax) + 0.5)
	z.hx0minusHxm = z.h(0.5) - math.Exp(math.Log(z.v)*(-z.q)) - z.hxm
	z.s = 1 - z.hinv(z.h(1.5)-math.Exp(-z.q*math.Log(z.v+1.0)))

	n := zipfTableCap
	if imax < zipfTableCap {
		n = int(imax) + 1
	}
	z.rank = make([]zipfRank, n+2)
	for k := range z.rank[:n] {
		kf := float64(k)
		rk := &z.rank[k]
		rk.loBelow, rk.loAbove = zipfBandAround(z.h(kf - 0.5))
		rk.firstBelow, rk.firstAbove = zipfBandAround(z.h(kf - z.s))
		rk.secondBelow, rk.secondAbove = zipfBandAround(z.h(kf+0.5) - math.Exp(-math.Log(kf+z.v)*z.q))
	}
	urHi := z.h(float64(n) - 0.5)
	z.rank[n].loBelow, z.rank[n].loAbove = zipfBandAround(urHi)
	z.rank[n+1].loBelow = math.Inf(1)

	// ur is uniform on (urLo, hxm], so 2n equal buckets leave about half
	// a rank edge per bucket to scan past.
	z.urLo = z.hxm + z.hx0minusHxm
	if !(urHi > z.urLo) {
		return z // no index: every draw takes the slow path
	}
	z.start = make([]uint16, 2*n)
	z.scale = float64(len(z.start)) / (urHi - z.urLo)
	k := 0
	for i := range z.start {
		edge := z.urLo + float64(i)/z.scale
		for k+1 < n && z.rank[k+1].loBelow <= edge {
			k++
		}
		z.start[i] = uint16(k)
	}
	return z
}

// zipfBandAround returns the edges of the guard band around c. A NaN c
// gives NaN edges, which no comparison passes: the slow path decides.
func zipfBandAround(c float64) (below, above float64) {
	w := math.Abs(c) * zipfBand
	return c - w, c + w
}

func (z *zipfTable) h(x float64) float64 {
	return math.Exp(z.oneminusQ*math.Log(z.v+x)) * z.oneminusQinv
}

func (z *zipfTable) hinv(x float64) float64 {
	return math.Exp(z.oneminusQinv*math.Log(z.oneminusQ*x)) - z.v
}

// Uint64 returns the next Zipf-distributed rank.
func (z *zipfTable) Uint64() uint64 {
	k := 0.0

	for {
		r := z.r.Float64() // r on [0,1]
		ur := z.hxm + r*z.hx0minusHxm
		if i := int((ur - z.urLo) * z.scale); uint(i) < uint(len(z.start)) {
			j := int(z.start[i])
			for ur >= z.rank[j+1].loBelow {
				j++
			}
			if j < len(z.rank)-2 && ur > z.rank[j].loAbove {
				rk := &z.rank[j]
				if ur > rk.firstAbove {
					return uint64(j)
				}
				if ur < rk.firstBelow {
					if ur > rk.secondAbove {
						return uint64(j)
					}
					if ur < rk.secondBelow {
						continue
					}
				}
			}
		}
		// The slow path: rand.Zipf's loop body.
		x := z.hinv(ur)
		k = math.Floor(x + 0.5)
		if k-x <= z.s {
			break
		}
		if ur >= z.h(k+0.5)-math.Exp(-math.Log(k+z.v)*z.q) {
			break
		}
	}
	return uint64(k)
}
