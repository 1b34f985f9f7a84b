package compile

// Test-only accessors for the external compile_test package.

// ScheduledFmlas reports the program's static FMLA count and how many of
// those landed in a scheduled region.
func ScheduledFmlas(cp *Program) (scheduled, total int) {
	return cp.scheduledFmlas, cp.fmlas
}

// Vector returns architectural vector register r of the environment.
func (e *Env) Vector(r int) []float32 {
	return e.v[r*e.lanes : (r+1)*e.lanes]
}

// ChainRunner returns run, which executes every uChain4 micro-op of cp
// once against e's vector file, and the number of FMLAs one call
// executes. run uses the loop the executor installs on this GOARCH, or
// the pure-Go reference when portable is set.
func ChainRunner(cp *Program, e *Env, portable bool) (run func(), fmlas int) {
	loop := runChains
	if portable {
		loop = execChains
	}
	type region struct {
		chains []chain
		steps  []step
	}
	var regions []region
	for _, c := range cp.blocks {
		for _, u := range c.body {
			if u.kind != uChain4 {
				continue
			}
			chs := c.chains[u.a:u.b]
			regions = append(regions, region{chs, c.steps})
			for _, ch := range chs {
				n := int(ch.hi - ch.lo)
				if ch.d2 >= 0 {
					n *= 2
				}
				fmlas += n
			}
		}
	}
	return func() {
		for _, r := range regions {
			loop(e.vp, r.chains, r.steps)
		}
	}, fmlas
}
