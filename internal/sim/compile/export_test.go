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
