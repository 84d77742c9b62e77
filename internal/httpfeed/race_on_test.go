//go:build race

package httpfeed

const raceEnabled = true
