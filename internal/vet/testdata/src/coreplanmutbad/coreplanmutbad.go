// Package coreplanmutbad is a seeded-defect fixture for the planmut
// analyzer's core half: every function writes a field of an attached
// core.Plan from outside internal/core.
package coreplanmutbad

import "autogemm/internal/core"

// PinAfterAttach sets a planning option on a plan that is already
// built, where nothing reads it.
func PinAfterAttach(p *core.Plan) {
	p.Opts.ForceKCisK = true // want planmut
}

// GrowShape changes the problem an attached executor runs.
func GrowShape(p *core.Plan) {
	p.M++ // want planmut
}

// AliasOpts hands out a mutation capability.
func AliasOpts(p *core.Plan) *core.Options {
	return &p.Opts // want planmut
}

// ConfigureLocal sets options on a local value before any plan is
// made from them; that is legitimate and must NOT be flagged.
func ConfigureLocal() core.Options {
	var opts core.Options
	opts.ForceKCisK = true
	return opts
}
