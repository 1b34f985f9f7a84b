//go:build race

package autogemm

func init() { raceEnabled = true }
