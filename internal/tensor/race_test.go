//go:build race

package tensor

func init() { raceEnabled = true }
