//go:build !race

package suss

const raceEnabled = false
