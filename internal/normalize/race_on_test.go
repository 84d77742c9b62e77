//go:build race

package normalize

const raceEnabled = true
