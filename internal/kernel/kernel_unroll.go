//go:build !purego

package kernel

// Impl names the selected kernel implementation: "unroll4", or "avx2" when
// runtime detection upgrades the float64 kernels to the assembly bodies.
var Impl = "unroll4"

// F64MulAdd folds one weighted row into the accumulator: for every lane j,
// dst[j] += w * row[j], with exactly one rounding for the multiply and one
// for the add. len(row) must be >= len(dst); lanes are independent, so the
// 4-wide unroll cannot reorder any lane's fold.
func F64MulAdd(dst, row []float64, w float64) {
	n := len(dst)
	row = row[:n]
	if useAVX2 && n >= 4 {
		f64MulAddAVX2(&dst[0], &row[0], n, w)
		return
	}
	j := 0
	for ; j+4 <= n; j += 4 {
		d0 := dst[j] + w*row[j]
		d1 := dst[j+1] + w*row[j+1]
		d2 := dst[j+2] + w*row[j+2]
		d3 := dst[j+3] + w*row[j+3]
		dst[j] = d0
		dst[j+1] = d1
		dst[j+2] = d2
		dst[j+3] = d3
	}
	for ; j < n; j++ {
		dst[j] += w * row[j]
	}
}

// F64MulAdd2 folds two weighted rows into the accumulator in one pass: for
// every lane j, dst[j] = (dst[j] + w1*r1[j]) + w2*r2[j], in exactly that
// association — identical to calling F64MulAdd(dst, r1, w1) then
// F64MulAdd(dst, r2, w2), but with half the accumulator traffic.
func F64MulAdd2(dst, r1, r2 []float64, w1, w2 float64) {
	n := len(dst)
	r1 = r1[:n]
	r2 = r2[:n]
	if useAVX2 && n >= 4 {
		f64MulAdd2AVX2(&dst[0], &r1[0], &r2[0], n, w1, w2)
		return
	}
	j := 0
	for ; j+4 <= n; j += 4 {
		d0 := (dst[j] + w1*r1[j]) + w2*r2[j]
		d1 := (dst[j+1] + w1*r1[j+1]) + w2*r2[j+1]
		d2 := (dst[j+2] + w1*r1[j+2]) + w2*r2[j+2]
		d3 := (dst[j+3] + w1*r1[j+3]) + w2*r2[j+3]
		dst[j] = d0
		dst[j+1] = d1
		dst[j+2] = d2
		dst[j+3] = d3
	}
	for ; j < n; j++ {
		dst[j] = (dst[j] + w1*r1[j]) + w2*r2[j]
	}
}

// F64MulAdd4 folds four weighted rows into the accumulator in one pass:
// dst[j] = ((((dst[j] + w1*r1[j]) + w2*r2[j]) + w3*r3[j]) + w4*r4[j]), in
// exactly that association — identical to two sequential F64MulAdd2 calls,
// but with a quarter of the accumulator traffic of single folds.
func F64MulAdd4(dst, r1, r2, r3, r4 []float64, w1, w2, w3, w4 float64) {
	n := len(dst)
	r1 = r1[:n]
	r2 = r2[:n]
	r3 = r3[:n]
	r4 = r4[:n]
	if useAVX2 && n >= 4 {
		f64MulAdd4AVX2(&dst[0], &r1[0], &r2[0], &r3[0], &r4[0], n, w1, w2, w3, w4)
		return
	}
	j := 0
	for ; j+4 <= n; j += 4 {
		d0 := (((dst[j] + w1*r1[j]) + w2*r2[j]) + w3*r3[j]) + w4*r4[j]
		d1 := (((dst[j+1] + w1*r1[j+1]) + w2*r2[j+1]) + w3*r3[j+1]) + w4*r4[j+1]
		d2 := (((dst[j+2] + w1*r1[j+2]) + w2*r2[j+2]) + w3*r3[j+2]) + w4*r4[j+2]
		d3 := (((dst[j+3] + w1*r1[j+3]) + w2*r2[j+3]) + w3*r3[j+3]) + w4*r4[j+3]
		dst[j] = d0
		dst[j+1] = d1
		dst[j+2] = d2
		dst[j+3] = d3
	}
	for ; j < n; j++ {
		dst[j] = (((dst[j] + w1*r1[j]) + w2*r2[j]) + w3*r3[j]) + w4*r4[j]
	}
}

// F64MulAdd4Set writes the first four weighted rows of an accumulation:
// dst[j] = ((w1*r1[j] + w2*r2[j]) + w3*r3[j]) + w4*r4[j], overwriting dst —
// identical to F64MulAdd2Set then F64MulAdd2, up to the sign of exact zeros
// (see F64MulAddSet).
func F64MulAdd4Set(dst, r1, r2, r3, r4 []float64, w1, w2, w3, w4 float64) {
	n := len(dst)
	r1 = r1[:n]
	r2 = r2[:n]
	r3 = r3[:n]
	r4 = r4[:n]
	if useAVX2 && n >= 4 {
		f64MulAdd4SetAVX2(&dst[0], &r1[0], &r2[0], &r3[0], &r4[0], n, w1, w2, w3, w4)
		return
	}
	j := 0
	for ; j+4 <= n; j += 4 {
		d0 := ((w1*r1[j] + w2*r2[j]) + w3*r3[j]) + w4*r4[j]
		d1 := ((w1*r1[j+1] + w2*r2[j+1]) + w3*r3[j+1]) + w4*r4[j+1]
		d2 := ((w1*r1[j+2] + w2*r2[j+2]) + w3*r3[j+2]) + w4*r4[j+2]
		d3 := ((w1*r1[j+3] + w2*r2[j+3]) + w3*r3[j+3]) + w4*r4[j+3]
		dst[j] = d0
		dst[j+1] = d1
		dst[j+2] = d2
		dst[j+3] = d3
	}
	for ; j < n; j++ {
		dst[j] = ((w1*r1[j] + w2*r2[j]) + w3*r3[j]) + w4*r4[j]
	}
}

// F64MulAddSet writes the first weighted row of an accumulation: for every
// lane j, dst[j] = w * row[j], overwriting dst. Equal to F64MulAdd on a
// zeroed accumulator except for the sign of an exact-zero product (0 + x
// normalizes -0 to +0; the store keeps -0) — identical to sign-based
// consumers. Using it on the first fold makes clearing dst unnecessary.
func F64MulAddSet(dst, row []float64, w float64) {
	n := len(dst)
	row = row[:n]
	if useAVX2 && n >= 4 {
		f64MulAddSetAVX2(&dst[0], &row[0], n, w)
		return
	}
	j := 0
	for ; j+4 <= n; j += 4 {
		d0 := w * row[j]
		d1 := w * row[j+1]
		d2 := w * row[j+2]
		d3 := w * row[j+3]
		dst[j] = d0
		dst[j+1] = d1
		dst[j+2] = d2
		dst[j+3] = d3
	}
	for ; j < n; j++ {
		dst[j] = w * row[j]
	}
}

// F64MulAdd2Set writes the first two weighted rows of an accumulation:
// dst[j] = w1*r1[j] + w2*r2[j], overwriting dst. Equal to F64MulAdd2 on a
// zeroed accumulator up to the sign of exact zeros (see F64MulAddSet).
func F64MulAdd2Set(dst, r1, r2 []float64, w1, w2 float64) {
	n := len(dst)
	r1 = r1[:n]
	r2 = r2[:n]
	if useAVX2 && n >= 4 {
		f64MulAdd2SetAVX2(&dst[0], &r1[0], &r2[0], n, w1, w2)
		return
	}
	j := 0
	for ; j+4 <= n; j += 4 {
		d0 := w1*r1[j] + w2*r2[j]
		d1 := w1*r1[j+1] + w2*r2[j+1]
		d2 := w1*r1[j+2] + w2*r2[j+2]
		d3 := w1*r1[j+3] + w2*r2[j+3]
		dst[j] = d0
		dst[j+1] = d1
		dst[j+2] = d2
		dst[j+3] = d3
	}
	for ; j < n; j++ {
		dst[j] = w1*r1[j] + w2*r2[j]
	}
}

// U64Min folds a row of ranks into the running minima: for every lane j,
// dst[j] = min(dst[j], row[j]). Order-independent, so unrolling is trivially
// safe.
func U64Min(dst, row []uint64) {
	n := len(dst)
	row = row[:n]
	j := 0
	for ; j+4 <= n; j += 4 {
		if row[j] < dst[j] {
			dst[j] = row[j]
		}
		if row[j+1] < dst[j+1] {
			dst[j+1] = row[j+1]
		}
		if row[j+2] < dst[j+2] {
			dst[j+2] = row[j+2]
		}
		if row[j+3] < dst[j+3] {
			dst[j+3] = row[j+3]
		}
	}
	for ; j < n; j++ {
		if row[j] < dst[j] {
			dst[j] = row[j]
		}
	}
}

// U64Min2 folds two rank rows into the running minima in one pass:
// dst[j] = min(dst[j], r1[j], r2[j]).
func U64Min2(dst, r1, r2 []uint64) {
	n := len(dst)
	r1 = r1[:n]
	r2 = r2[:n]
	for j := 0; j < n; j++ {
		m := dst[j]
		if r1[j] < m {
			m = r1[j]
		}
		if r2[j] < m {
			m = r2[j]
		}
		dst[j] = m
	}
}
