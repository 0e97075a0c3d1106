//go:build race

package proto

// Under the race detector sync.Pool drops a share of what is put into
// it on purpose, so the encode buffer is not always recycled.
const raceEnabled = true
