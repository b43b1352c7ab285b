//go:build race

package runtime

// raceEnabled: under the race detector sync.Pool deliberately drops a
// quarter of its Puts, so byte-level steady-state allocation bounds on
// pooled batches do not hold there.
const raceEnabled = true
