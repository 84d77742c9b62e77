//go:build !race

package diskfault

const raceEnabled = false
