// The repaired deadbranch fixture: branch verdicts that are deliberate or
// genuinely data-dependent stay silent.
package deadbranch

// Compile-time configuration: the type checker folds the condition, so it
// is a const gate, not dead logic.
const debugBuild = false

func compileTimeConfig(n int) int {
	if debugBuild {
		return -n
	}
	return n
}

// Data-dependent conditions have no verdict.
func dataDependent(n int) int {
	verbose := n > 10
	if verbose {
		return -n
	}
	return n
}

// A loop-carried accumulator never folds.
func loopCarried(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	if s > 100 {
		return 1
	}
	return 0
}

// A switch is not a condition block: its cases draw no verdict even when
// the tag is a local constant.
func switchTag() int {
	mode := 2
	switch mode {
	case 1:
		return 10
	case 2:
		return 20
	}
	return 0
}

// A variable a closure assigns is not followed: enable may have flipped it
// before the check.
func closureAssigned() int {
	enabled := false
	enable := func() { enabled = true }
	enable()
	if enabled {
		return 1
	}
	return 0
}

// A pointer-receiver method takes its operand's address implicitly, called
// or taken as a method value: inc may have changed c before the check.
type counter int

func (c *counter) inc() { *c++ }

func pointerMethodCall() int {
	var c counter
	c.inc()
	if c == 0 {
		return 1
	}
	return 0
}

func methodValue() int {
	var c counter
	inc := c.inc
	inc()
	if c == 0 {
		return 1
	}
	return 0
}
