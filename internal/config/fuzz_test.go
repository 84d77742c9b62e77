package config

import "testing"

// FuzzConfig drives the whole configuration language with arbitrary
// text, seeded with the golden corpus: the documentation examples,
// the benchmark's configurations, the plan seeds, and a minimal and a
// maximal configuration per block generated from the schema.
// Invariants:
//   - Parse never panics, whatever the input;
//   - an accepted config Formats to text that re-parses (Format emits
//     only valid syntax, and the closing and resolve-time checks pass
//     again on their own output);
//   - the re-parsed config equals the first, field by field (Format
//     loses nothing the parser built);
//   - Format is a fixed point after one round trip.
func FuzzConfig(f *testing.F) {
	for _, src := range corpus(f) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, text string) {
		cfg, err := Parse(text)
		if err != nil {
			return
		}
		roundTrip(t, cfg)
	})
}
