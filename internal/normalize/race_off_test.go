//go:build !race

package normalize

const raceEnabled = false
