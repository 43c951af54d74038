package oracle

// The batched query engine: every stage of the learning pipeline (pattern
// sampling, support identification, FBDT node splitting, accuracy evaluation,
// refinement sweeps) issues its black-box queries in blocks, and this file
// defines the block-level interface those stages speak.
//
// A batch of n patterns is bit-packed into lanes: with W = Words(n) words per
// lane, input lane i occupies patterns[i*W : (i+1)*W], and bit k of a lane
// (word k/64, bit position k%64) holds the value of that input in pattern k.
// Results use the same layout per output. Tail bits (pattern indices >= n in
// the last word) are don't-cares on both sides: implementations may evaluate
// or ignore them, and callers must mask result tails before counting.
//
// The scalar Eval path remains the reference semantics: for any oracle o and
// any batch, EvalBatch must be bitwise identical to evaluating each pattern
// with o.Eval — the parity tests in batch_test.go enforce this across all 20
// benchmark cases.

import (
	"fmt"

	"logicregression/internal/bitvec"
)

// Words returns the number of 64-bit lane words needed to hold n patterns.
//
//logicreg:hotpath
func Words(n int) int { return (n + 63) / 64 }

// BatchOracle is implemented by oracles that can answer many queries in one
// call, bit-packed into lanes (see the package layout comment above). Batch
// calls carry the same information as n scalar queries; the interface exists
// purely to amortize per-query overhead (simulation scratch, cache probes,
// network round trips).
type BatchOracle interface {
	Oracle
	// EvalBatch evaluates n patterns packed into input lanes and returns
	// NumOutputs() result lanes in the same layout.
	EvalBatch(patterns []bitvec.Word, n int) []bitvec.Word
}

// AsBatch lifts any oracle to the batch interface. Oracles that already
// implement BatchOracle are returned unchanged; everything else is wrapped in
// an adapter that issues one scalar Eval per pattern, with results bitwise
// identical to the scalar reference, so consumers can speak batch
// unconditionally.
func AsBatch(o Oracle) BatchOracle {
	if b, ok := o.(BatchOracle); ok {
		return b
	}
	return &liftedBatch{o}
}

// liftedBatch adapts a scalar oracle to BatchOracle.
type liftedBatch struct {
	Oracle
}

// EvalBatch issues exactly one scalar Eval per live pattern: a plain oracle
// never pays for the padded tail of the last word, so n batched queries
// cost n real queries.
func (l *liftedBatch) EvalBatch(patterns []bitvec.Word, n int) []bitvec.Word {
	nIn, nOut := l.NumInputs(), l.NumOutputs()
	w := Words(n)
	checkBatch(len(patterns), nIn, n)
	out := make([]bitvec.Word, nOut*w)
	assign := make([]bool, nIn)
	for k := 0; k < n; k++ {
		patternBools(patterns, w, nIn, k, assign)
		scatterBools(out, w, k, l.Eval(assign))
	}
	return out
}

// checkBatch panics when the lane buffer does not match the declared batch
// geometry; a mismatch is always a programming error.
func checkBatch(got, nIn, n int) {
	if n <= 0 {
		panic(fmt.Sprintf("oracle: EvalBatch of %d patterns", n))
	}
	if want := nIn * Words(n); got != want {
		panic(fmt.Sprintf("oracle: EvalBatch got %d lane words, want %d (%d inputs x %d words)",
			got, want, nIn, Words(n)))
	}
}

// EvalBatch evaluates n lane-packed patterns on any oracle, using the batch
// interface when available.
func EvalBatch(o Oracle, patterns []bitvec.Word, n int) []bitvec.Word {
	return AsBatch(o).EvalBatch(patterns, n)
}

// EvalOutput evaluates n lane-packed patterns on any oracle and returns
// output po's Words(n) result words, bit for bit lane po of EvalBatch. A
// box that can answer one output for less than the whole batch does so;
// any other answers the whole batch and the lane is sliced out.
func EvalOutput(o Oracle, patterns []bitvec.Word, n, po int) []bitvec.Word {
	if one, ok := o.(outputOracle); ok {
		return one.evalOutput(patterns, n, po)
	}
	w := Words(n)
	return EvalBatch(o, patterns, n)[po*w : (po+1)*w : (po+1)*w]
}

// outputOracle is implemented by the boxes that answer one output of a
// batch on their own: the circuit-backed oracle, from that output's cone,
// and Counter, which forwards. A box whose unit of work is a whole response
// (a memo entry, a transcript line, a wire reply) must not implement it.
type outputOracle interface {
	evalOutput(patterns []bitvec.Word, n, po int) []bitvec.Word
}

// ScalarOnly restricts o to the plain Eval interface, hiding any batch-level
// fast path it implements. It is the reference wrapper for the
// equivalence guarantee: for any oracle, learning against ScalarOnly(o) and
// against o itself must produce byte-identical results at a fixed seed.
func ScalarOnly(o Oracle) Oracle { return &scalarOnly{o} }

type scalarOnly struct {
	Oracle
}

// laneBit returns the value of input/output lane i in pattern k.
//
//logicreg:hotpath
func laneBit(lanes []bitvec.Word, w, i, k int) bool {
	return lanes[i*w+k>>6]>>(uint(k)&63)&1 == 1
}

// setLaneBit sets pattern k of lane i to 1 (lanes start all-zero).
//
//logicreg:hotpath
func setLaneBit(lanes []bitvec.Word, w, i, k int) {
	lanes[i*w+k>>6] |= 1 << (uint(k) & 63)
}

// patternBools extracts pattern k of a lane-packed batch into dst (one entry
// per lane).
//
//logicreg:hotpath
func patternBools(lanes []bitvec.Word, w, nLanes, k int, dst []bool) {
	for i := 0; i < nLanes; i++ {
		dst[i] = laneBit(lanes, w, i, k)
	}
}

// scatterBools writes one response into bit k of each output lane.
//
//logicreg:hotpath
func scatterBools(out []bitvec.Word, w, k int, v []bool) {
	for j, bit := range v {
		if bit {
			setLaneBit(out, w, j, k)
		}
	}
}
