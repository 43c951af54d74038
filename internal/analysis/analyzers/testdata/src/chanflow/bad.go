// The chanflow fixture: channel lifecycle mistakes that panic or hang.
package chanflow

// Send after close on the same path.
func sendAfterClose() {
	ch := make(chan int, 1)
	close(ch)
	ch <- 1 // want "may already be closed"
}

// Closed on one branch only: the send still may panic.
func maybeClosed(flag bool) {
	ch := make(chan int, 1)
	if flag {
		close(ch)
	}
	ch <- 1 // want "may already be closed"
}

// Plain double close.
func doubleClose() {
	ch := make(chan int)
	close(ch)
	close(ch) // want "a double close panics"
}

// shutdown closes its parameter; the summary makes the second close a
// double close even though no close builtin repeats textually.
func shutdown(c chan int) {
	close(c)
}

func doubleViaHelper() {
	ch := make(chan int)
	shutdown(ch)
	close(ch) // want "a double close panics"
}

// The deferred close runs at exit, after the body already closed ch.
func deferredDouble() {
	ch := make(chan int)
	defer close(ch) // want "a double close panics"
	close(ch)
}

// A naked send on a provably unbuffered channel blocks forever once the
// receiver is gone.
func fanout(work func() int) {
	done := make(chan struct{})
	go func() {
		_ = work()
		done <- struct{}{} // want "blocking send on unbuffered channel done"
	}()
	<-done
}

// Different flags guard the close and the send: the pair may execute
// together.
func uncorrelatedClose(a, b bool, ch chan int) {
	if a {
		close(ch)
	}
	if b {
		ch <- 1 // want "may already be closed"
	}
}

// The same flag, but reassigned between the check sites: the close and
// the send may both execute.
func reassignedFlag(stop bool, ch chan int) {
	if stop {
		close(ch)
	}
	stop = !stop
	if !stop {
		ch <- 1 // want "may already be closed"
	}
}

// The same unreassigned flag with opposite truth guards the close and the
// send, so they never run together; but the lattice joins paths without
// their conditions, so the send is reported. Close on a path that returns
// instead.
func correlatedClose(stop bool, ch chan int) {
	if stop {
		close(ch)
	}
	if !stop {
		ch <- 1 // want "may already be closed"
	}
}
