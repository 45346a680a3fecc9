//go:build race

package transforms

func init() { raceEnabled = true }
