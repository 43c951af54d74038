// The repaired nilflow fixture: error paths never dereference the value, a
// reassignment starts a fresh value the old check does not taint, and a
// check that does not hold on every path to a use proves nothing there.
package nilflow

// The error branch reports and leaves; only the success path uses c.
func guarded() int {
	c, err := dial()
	if err != nil {
		return -1
	}
	return c.id
}

// After the reassignment c no longer holds the call's result, so the
// err != nil check about that call no longer applies to it.
func reassigned() int {
	c, err := dial()
	if err != nil {
		c = &conn{id: 0}
		return c.id
	}
	return c.id
}

// A use outside the error-dominated region is not flagged: nothing here
// proves err is non-nil.
func uncheckedUse() int {
	c, _ := dial()
	if c == nil {
		return -1
	}
	return c.id
}

// A check in one arm proves nothing after the merge: the other arm
// reaches the use without looking at err.
func oneArm(verbose bool) int {
	c, err := dial()
	if verbose {
		if err != nil {
			println("dial failed")
		}
	}
	return c.id
}

// A disjunction proves neither side: the arm also runs when only verbose
// holds.
func disjunct(verbose bool) int {
	c, err := dial()
	if err != nil || verbose {
		return c.id
	}
	return 0
}

// A closure assigns the result, so c is not followed: reset may have
// replaced the nil value before the use.
func captured() int {
	c, err := dial()
	reset := func() { c = &conn{} }
	if err != nil {
		reset()
		return c.id
	}
	return c.id
}
