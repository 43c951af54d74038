package oracle

// Transcript recording and replay: a Recorder logs every query/response
// pair of a black-box session to a writer, and Replay serves a recorded
// session back as an Oracle. This turns an expensive or remote black box
// (a live iogen server, a slow generator) into a reproducible offline
// artifact for debugging learner behaviour.
//
// Format: a two-line header with the port names, then one line per query:
//
//	inputs a b c
//	outputs z
//	010 1
//	111 0
//
// Query lines are read and written with the word-level '0'/'1' row codec
// of internal/bitvec, batches by one bit transpose per 64 patterns.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"

	"logicregression/internal/bitvec"
)

// Recorder wraps an oracle and appends every query to w. It is safe for
// concurrent use; line writes are serialized.
type Recorder struct {
	inner Oracle
	mu    sync.Mutex
	w     *bufio.Writer
	err   error
}

// NewRecorder wraps o, writing the transcript header immediately.
func NewRecorder(o Oracle, w io.Writer) (*Recorder, error) {
	r := &Recorder{inner: o, w: bufio.NewWriter(w)}
	fmt.Fprintf(r.w, "inputs %s\n", strings.Join(o.InputNames(), " "))
	fmt.Fprintf(r.w, "outputs %s\n", strings.Join(o.OutputNames(), " "))
	if err := r.w.Flush(); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *Recorder) NumInputs() int        { return r.inner.NumInputs() }
func (r *Recorder) NumOutputs() int       { return r.inner.NumOutputs() }
func (r *Recorder) InputNames() []string  { return r.inner.InputNames() }
func (r *Recorder) OutputNames() []string { return r.inner.OutputNames() }

func (r *Recorder) Eval(a []bool) []bool {
	out := r.inner.Eval(a)
	in, res := packRow(a), packRow(out)
	line := make([]byte, len(a)+len(out)+2)
	r.mu.Lock()
	r.w.Write(transcriptLine(line, len(a), in, res))
	if err := r.w.Flush(); err != nil && r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
	return out
}

// EvalBatch forwards the batch to the inner oracle and logs every pattern of
// it, in pattern order, exactly as the equivalent scalar queries would have
// been logged — so a transcript recorded through the batch path replays
// interchangeably with one recorded scalar.
func (r *Recorder) EvalBatch(patterns []bitvec.Word, n int) []bitvec.Word {
	nIn, nOut := r.inner.NumInputs(), r.inner.NumOutputs()
	w := Words(n)
	checkBatch(len(patterns), nIn, n)
	out := AsBatch(r.inner).EvalBatch(patterns, n)
	kw, ow := bitvec.RowWords(nIn), bitvec.RowWords(nOut)
	in, res := make([]bitvec.Word, 64*kw), make([]bitvec.Word, 64*ow)
	line := make([]byte, nIn+nOut+2)
	r.mu.Lock()
	for b := 0; b < w; b++ {
		bitvec.LanesToRows(in, patterns, w, nIn, b)
		bitvec.LanesToRows(res, out, w, nOut, b)
		for p := 0; p < 64 && 64*b+p < n; p++ {
			r.w.Write(transcriptLine(line, nIn, in[p*kw:(p+1)*kw], res[p*ow:(p+1)*ow]))
		}
	}
	if err := r.w.Flush(); err != nil && r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
	return out
}

// transcriptLine formats one query line, "<in> <out>\n", into line (nIn
// input characters, then len(line)-nIn-2 output characters) from the
// query's input and output rows.
func transcriptLine(line []byte, nIn int, in, out []bitvec.Word) []byte {
	bitvec.FormatRow(line[:nIn], in)
	line[nIn] = ' '
	bitvec.FormatRow(line[nIn+1:len(line)-1], out)
	line[len(line)-1] = '\n'
	return line
}

// Err returns the first write error, if any.
func (r *Recorder) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Replay is an Oracle backed by a recorded transcript. Queries not present
// in the transcript panic with a descriptive message — a replayed session
// can only answer what the original session asked (run the learner with the
// same seed and options as the recording).
type Replay struct {
	ins, outs []string
	// responses maps the MemoKey of each recorded query to its response
	// row, resp[i*ow : (i+1)*ow] for ow = RowWords(len(outs)).
	responses map[string]int
	resp      []bitvec.Word
}

// NewReplay parses a transcript.
func NewReplay(r io.Reader) (*Replay, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	readHeader := func(keyword string) ([]string, error) {
		if !sc.Scan() {
			return nil, fmt.Errorf("oracle: transcript missing %q header", keyword)
		}
		fields := strings.Fields(sc.Text())
		if len(fields) < 1 || fields[0] != keyword {
			return nil, fmt.Errorf("oracle: expected %q header, got %q", keyword, sc.Text())
		}
		return fields[1:], nil
	}
	ins, err := readHeader("inputs")
	if err != nil {
		return nil, err
	}
	outs, err := readHeader("outputs")
	if err != nil {
		return nil, err
	}
	rp := &Replay{ins: ins, outs: outs, responses: make(map[string]int)}
	kw, ow := bitvec.RowWords(len(ins)), bitvec.RowWords(len(outs))
	in := make([]bitvec.Word, kw)
	var key []byte
	recorded := 0
	lineNo := 2
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		fields := bytes.Fields(line)
		if len(fields) != 2 || len(fields[0]) != len(ins) || len(fields[1]) != len(outs) {
			return nil, fmt.Errorf("oracle: transcript line %d malformed: %q", lineNo, line)
		}
		rp.resp = append(rp.resp, make([]bitvec.Word, ow)...)
		if i := bitvec.ParseRow(rp.resp[recorded*ow:], fields[1]); i >= 0 {
			return nil, fmt.Errorf("oracle: transcript line %d: bad bit %q", lineNo, fields[1][i])
		}
		if i := bitvec.ParseRow(in, fields[0]); i >= 0 {
			return nil, fmt.Errorf("oracle: transcript line %d: bad bit %q", lineNo, fields[0][i])
		}
		key = rowKey(key[:0], in, len(ins))
		rp.responses[string(key)] = recorded
		recorded++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rp, nil
}

// NumQueries returns the number of distinct recorded queries.
func (r *Replay) NumQueries() int { return len(r.responses) }

func (r *Replay) NumInputs() int        { return len(r.ins) }
func (r *Replay) NumOutputs() int       { return len(r.outs) }
func (r *Replay) InputNames() []string  { return append([]string(nil), r.ins...) }
func (r *Replay) OutputNames() []string { return append([]string(nil), r.outs...) }

// response returns the recorded response row of the query of n bits whose
// row is in, panicking when the transcript never asked it.
func (r *Replay) response(in []bitvec.Word, n int) []bitvec.Word {
	var buf [32]byte
	i, ok := r.responses[string(rowKey(buf[:0], in, n))]
	if !ok {
		q := make([]byte, n)
		bitvec.FormatRow(q, in)
		panic(fmt.Sprintf("oracle: replay has no response for query %s (replay with the recording session's seed and options)", q))
	}
	ow := bitvec.RowWords(len(r.outs))
	return r.resp[i*ow : (i+1)*ow]
}

func (r *Replay) Eval(a []bool) []bool {
	in := packRow(a)
	out := make([]bool, len(r.outs))
	bitvec.UnpackBools(out, r.response(in, len(a)))
	return out
}

// EvalBatch answers every pattern of the batch from the transcript; any
// pattern absent from the recording panics, exactly like scalar Eval.
func (r *Replay) EvalBatch(patterns []bitvec.Word, n int) []bitvec.Word {
	nIn, nOut := len(r.ins), len(r.outs)
	w := Words(n)
	checkBatch(len(patterns), nIn, n)
	out := make([]bitvec.Word, nOut*w)
	kw, ow := bitvec.RowWords(nIn), bitvec.RowWords(nOut)
	in, res := make([]bitvec.Word, 64*kw), make([]bitvec.Word, 64*ow)
	for b := 0; b < w; b++ {
		bitvec.LanesToRows(in, patterns, w, nIn, b)
		p := 0
		for ; p < 64 && 64*b+p < n; p++ {
			copy(res[p*ow:(p+1)*ow], r.response(in[p*kw:(p+1)*kw], nIn))
		}
		bitvec.RowsToLanes(out, w, nOut, b, res[:p*ow])
	}
	return out
}

// Fork returns the replay itself: the response table is read-only after
// construction, so one Replay may serve many goroutines.
func (r *Replay) Fork() Oracle { return r }
