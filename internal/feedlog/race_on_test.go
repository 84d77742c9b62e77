//go:build race

package feedlog

const raceEnabled = true
