//go:build race

package oracle_test

// raceEnabled reports a -race build, whose sync.Pool drops a random quarter
// of the objects put back, so pooled buffers are reallocated at random.
const raceEnabled = true
