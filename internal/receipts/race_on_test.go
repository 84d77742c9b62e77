//go:build race

package receipts

const raceEnabled = true
