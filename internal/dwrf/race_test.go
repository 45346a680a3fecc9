//go:build race

package dwrf

func init() { raceEnabled = true }
