package main

// Speed calibration. The benchmark runs on shared machines whose speed
// drifts: on the 2-vCPU VM it was defined on, a fixed single-threaded load
// ran up to 15% faster or slower from one minute to the next, and every
// workload's learn time moved with it. So the runner scales its timings to
// a reference speed: it times a fixed load of plain Go before set-up and
// after every pass, and multiplies each timing by refCalS over the mean of
// the two calibrations around it. The load uses only the standard library,
// so no change to the repository makes it faster or slower.

import (
	"crypto/sha256"
	"runtime"
	"time"
)

// refCalS is calibrate's median time on the reference machine, in seconds.
const refCalS = 0.19

type calNode struct {
	next *calNode
	v    uint64
}

var calSink uint64

// calibrate collects the heap, then times a fixed mix of hashing,
// allocation churn with a small live set, and random access over 32 MiB.
func calibrate() float64 {
	runtime.GC()
	start := time.Now()
	buf := make([]byte, 1<<20)
	for k := 0; k < 48; k++ {
		sum := sha256.Sum256(buf)
		buf[k] = sum[0]
	}
	var live [256]*calNode
	x := uint64(7)
	for i := 0; i < 1_300_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		k := int(x >> 56)
		live[k] = &calNode{next: live[k], v: x}
		if i%8 == 0 {
			live[(k+1)&255] = nil
		}
	}
	big := make([]uint32, 8<<20)
	y := uint32(1)
	for i := 0; i < 1<<20; i++ {
		j := int(y*7919) & (len(big) - 1)
		big[j] += y
		y = big[j]&0xffff + uint32(i)
	}
	calSink += x + uint64(y)
	return time.Since(start).Seconds()
}

// atRefSpeed scales a timing taken between calibrations before and after
// to the reference speed.
func atRefSpeed(seconds, before, after float64) float64 {
	return seconds * refCalS * 2 / (before + after)
}
