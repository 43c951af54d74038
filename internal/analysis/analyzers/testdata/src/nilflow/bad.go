// The nilflow fixture: call results dereferenced on the very paths their
// paired error check proves may be nil.
package nilflow

import "errors"

type conn struct{ id int }

func dial() (*conn, error) { return nil, errors.New("down") }

func load() ([]int, error) { return nil, errors.New("empty") }

// The classic: cleanup inside the error branch uses the nil result.
func useInErrBranch() int {
	c, err := dial()
	if err != nil {
		return c.id // want "may be nil here"
	}
	return c.id
}

// Same proof through the inverted check: the fall-through of an
// err == nil early return is the error path.
func useAfterInvertedCheck() int {
	c, err := dial()
	if err == nil {
		return c.id
	}
	return (*c).id // want "may be nil here"
}

// A nil slice has length zero: indexing it in the error branch panics.
func indexInErrBranch() int {
	rows, err := load()
	if err != nil {
		return rows[0] // want "may be nil here"
	}
	return 0
}

// Plain value flow is fine — returning the pair verbatim is the idiom.
func passThrough() (*conn, error) {
	c, err := dial()
	if err != nil {
		return c, err
	}
	return c, nil
}

// A copy of the error carries the proof: e is err.
func copiedErr() int {
	c, err := dial()
	e := err
	if e != nil {
		return c.id // want "may be nil here"
	}
	return c.id
}

// A conjunct is enough: the arm runs only when err != nil holds.
func conjunct(verbose bool) int {
	c, err := dial()
	if err != nil && verbose {
		return c.id // want "may be nil here"
	}
	return 0
}

// Negation and parentheses are seen through.
func negated() int {
	c, err := dial()
	if !(err == nil) {
		return c.id // want "may be nil here"
	}
	return 0
}

// Rewrapping the error does not revive c: the call still failed.
func rewrapped() (int, error) {
	c, err := dial()
	if err != nil {
		err = errors.Join(errors.New("dial"), err)
		return c.id, err // want "may be nil here"
	}
	return c.id, nil
}

// The call sits in a loop: each iteration's failure path is its own.
func inLoop(n int) int {
	total := 0
	for i := 0; i < n; i++ {
		c, err := dial()
		if err != nil {
			total += c.id // want "may be nil here"
			continue
		}
		total += c.id
	}
	return total
}
