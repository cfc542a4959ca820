//go:build race

package suss

const raceEnabled = true
