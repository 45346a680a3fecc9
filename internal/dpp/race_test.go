//go:build race

package dpp

func init() { raceEnabled = true }
