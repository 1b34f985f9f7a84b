package compile

// Test-only accessors for the external compile_test package.

// AffineFmlas reports the program's static FMLA count and how many of
// those landed in an affine region.
func AffineFmlas(cp *Program) (affine, total int) {
	return cp.affineFmlas, cp.fmlas
}

// Vector returns architectural vector register r of the environment.
func (e *Env) Vector(r int) []float32 {
	return e.v[r*e.lanes : (r+1)*e.lanes]
}

// AffineRunner runs cp once over the operands to record the strided
// loops its affine regions resolve, and returns run, which executes
// those loops again against e's vector file, and the number of FMLAs one
// call executes: each group's accumulators × its steps. run uses the
// loop the executor installs on this GOARCH, or the pure-Go reference
// when portable is set. The operand slices must stay live while run is
// used.
func AffineRunner(cp *Program, e *Env, a, b, c []float32, lda, ldb, ldc int64, portable bool) (run func(), fmlas int, err error) {
	loop := runAffine
	var groups []affineGroup
	runAffine = func(g *affineGroup) {
		groups = append(groups, *g)
		loop(g)
	}
	err = cp.Run(e, a, b, c, 0, 0, 0, lda, ldb, ldc, 1<<30)
	runAffine = loop
	if portable {
		loop = execAffine
	}
	for _, g := range groups {
		fmlas += int(g.k * g.n)
	}
	return func() {
		for i := range groups {
			loop(&groups[i])
		}
	}, fmlas, err
}
