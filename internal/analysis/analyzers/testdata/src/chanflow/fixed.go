// The repaired forms. This file must stay silent.
package chanflow

// Close once, on exactly one owner path.
func closeOnce(flag bool) {
	ch := make(chan int, 1)
	ch <- 1
	if flag {
		close(ch)
		return
	}
	close(ch)
}

// Re-making a channel resets its state: the new channel is open.
func remade() {
	ch := make(chan int, 1)
	close(ch)
	ch = make(chan int, 1)
	ch <- 1
	close(ch)
}

// A deferred close with no body close is the canonical owner pattern.
func deferOwner() chan int {
	ch := make(chan int, 4)
	defer close(ch)
	ch <- 1
	return ch
}

// A buffered channel sized to the fan-out cannot block the sender.
func buffered(work func() int) {
	done := make(chan struct{}, 1)
	go func() {
		_ = work()
		done <- struct{}{}
	}()
	<-done
}

// A select with an escape never blocks unconditionally, even unbuffered.
func selectSend(stop chan struct{}) {
	out := make(chan int)
	select {
	case out <- 1:
	case <-stop:
	}
}

// A reviewed exception: the receiver is started in the same statement list
// and cannot exit before receiving.
func reviewed() {
	sync := make(chan struct{})
	go func() {
		<-sync
	}()
	sync <- struct{}{} //logicreg:allow chanflow receiver started above cannot exit early
}
