//go:build race

package dsi_test

func init() { raceEnabled = true }
