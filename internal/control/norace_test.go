//go:build !race

package control

const raceEnabled = false
