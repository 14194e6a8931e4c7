package tensor

import (
	"math/rand"
	"testing"
)

// BenchmarkDenseKernels times the four dense kernels at the shapes the
// end-to-end ledger runs them at: the taxi-infer forward ([10000×23]·[23×16],
// dense and with 94 % of the rows zero, as its isolated nodes leave the hop
// inputs, and over the concatenation [x|h] of a 7- and a 16-column part read
// where they are, beside the copy it replaced), a training partition
// ([11×22]·[22×16] and its two backward products, the input gradient also
// added in place), a Taxi training round's weight gradient ([129×23]ᵀ·[129×16]
// with 93 % of the gradient rows zero, the rows the loss does not read) and a
// full-graph weight gradient. MAC/s counts every
// multiply-add of the dense product, skipped or not, so a zero-row case reads
// as the speed-up it is. `make bench-kernels` runs it.
func BenchmarkDenseKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	dense := func(r, c int) *Matrix { return NewRandom(rng, r, c, 1) }
	a, w, sum, g := dense(10000, 23), dense(23, 16), dense(10000, 16), dense(10000, 16)
	sparse := a.Clone()
	for r := 0; r < sparse.Rows; r++ {
		if r%17 != 0 { // 1 row in 17 kept: 94.1 % zero
			clear(sparse.Row(r))
		}
	}
	px, pw, pg, pacc := dense(11, 22), dense(22, 16), dense(11, 16), dense(11, 22)
	ux, ug := dense(129, 23), dense(129, 16)
	for r := 0; r < ug.Rows; r++ {
		if r%15 != 0 { // 9 rows of 129 kept: 93.0 % zero
			clear(ug.Row(r))
		}
	}
	xh := Concat{Rows: 10000, Parts: []*Matrix{dense(10000, 7), dense(10000, 16)}}
	cases := []struct {
		name string
		macs int
		run  func() *Matrix
	}{
		{"MatMul/10000x23·23x16", 10000 * 23 * 16, func() *Matrix { return MatMul(a, w) }},
		{"MatMulAcc/10000x23·23x16", 10000 * 23 * 16, func() *Matrix { return MatMulAccTo(nil, sum, a, w) }},
		{"MatMul/10000x23·23x16/zero94", 10000 * 23 * 16, func() *Matrix { return MatMul(sparse, w) }},
		{"MatMulAcc/10000x23·23x16/zero94", 10000 * 23 * 16, func() *Matrix { return MatMulAccTo(nil, sum, sparse, w) }},
		{"MatMul/[10000x7|10000x16]·23x16", 10000 * 23 * 16, func() *Matrix { return MatMulConcat(xh, w) }},
		{"MatMulAcc/[10000x7|10000x16]·23x16", 10000 * 23 * 16, func() *Matrix { return MatMulAccConcatTo(nil, sum, xh, w) }},
		{"ConcatCols+MatMul/[10000x7|10000x16]·23x16", 10000 * 23 * 16, func() *Matrix {
			c := xh.Dense()
			defer Recycle(c)
			return MatMul(c, w)
		}},
		{"MatMul/11x22·22x16", 11 * 22 * 16, func() *Matrix { return MatMul(px, pw) }},
		{"MatMulTransA/11x22ᵀ·11x16", 11 * 22 * 16, func() *Matrix { return MatMulTransA(px, pg) }},
		{"MatMulTransA/129x23ᵀ·129x16/zero93", 129 * 23 * 16, func() *Matrix { return MatMulTransA(ux, ug) }},
		{"MatMulTransA/10000x23ᵀ·10000x16", 10000 * 23 * 16, func() *Matrix { return MatMulTransA(a, g) }},
		{"MatMulTransB/11x16·(22x16)ᵀ", 11 * 22 * 16, func() *Matrix { return MatMulTransB(pg, pw) }},
		{"MatMulTransBAddTo/11x16·(22x16)ᵀ", 11 * 22 * 16, func() *Matrix { MatMulTransBAddTo(pacc, pg, pw); return nil }},
	}
	EnablePooling(true)
	defer EnablePooling(false)
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Recycle(c.run())
			}
			b.ReportMetric(float64(c.macs)*float64(b.N)/b.Elapsed().Seconds(), "MAC/s")
		})
	}
}
