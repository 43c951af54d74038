// The deadbranch fixture: conditions constant propagation proves constant,
// hiding one arm from every run.
package deadbranch

// Leftover debug scaffolding: the flag is assigned false and never again.
func leftoverDebug(n int) int {
	verbose := false
	if verbose { // want "always false"
		return -n
	}
	return n
}

// The refactoring residue: mode can only be 3 here.
func alwaysTrueGuard() int {
	mode := 3
	if mode > 1 { // want "always true"
		return 1
	}
	return 0
}

// One root cause, one finding: conditions inside the arm already proved
// unreachable are not re-reported.
func cascade() int {
	debug := false
	if debug { // want "always false"
		x := 1
		if x == 1 {
			return 2
		}
	}
	return 0
}

// Constants propagate through joins when both arms agree.
func throughJoin(flag bool) int {
	limit := 0
	if flag {
		limit = 8
	} else {
		limit = 8
	}
	if limit == 8 { // want "always true"
		return 1
	}
	return 0
}

// A false left operand decides && on its own.
func shortCircuit(n int) int {
	ready := false
	if ready && n > 0 { // want "always false"
		return n
	}
	return 0
}

// Arithmetic wraps at the type's width: b is 0 after the increment.
func wraps() int {
	var b uint8 = 255
	b++
	if b == 0 { // want "always true"
		return 1
	}
	return 0
}

// Conversions truncate to the target width: uint8(300) is 44.
func converted() int {
	k := 300
	if uint8(k) == 44 { // want "always true"
		return 1
	}
	return 0
}
