//go:build race

package compress

// raceEnabled reports whether the race detector is on: sync.Pool then
// drops items on purpose, so allocation pins on pooled state are void.
const raceEnabled = true
