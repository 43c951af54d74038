package oracle

// Transcripts: a Recorder logs every query/response pair of a black-box
// session to a writer, and a TranscriptReader reads such a log back. This
// turns an expensive or remote black box (a live iogen server, a slow
// generator) into an offline artifact: the persistent store imports one as
// a warm-start corpus for its memo log (store.ImportTranscript).
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

// TranscriptReader reads a transcript a Recorder wrote: the header when it
// is made, then one query and its response per Next call. Its errors name
// the transcript line ("transcript line 3: bad bit 'x'") and carry no
// package prefix, so the caller adds its own.
type TranscriptReader struct {
	// Identity holds the header's port names.
	Identity Identity

	sc     *bufio.Scanner
	lineNo int
	row    []bitvec.Word
}

// NewTranscriptReader reads the two header lines of the transcript in r.
func NewTranscriptReader(r io.Reader) (*TranscriptReader, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	header := func(keyword string) ([]string, error) {
		if !sc.Scan() {
			return nil, fmt.Errorf("transcript missing %q header", keyword)
		}
		fields := strings.Fields(sc.Text())
		if len(fields) < 1 || fields[0] != keyword {
			return nil, fmt.Errorf("expected %q header, got %q", keyword, sc.Text())
		}
		return fields[1:], nil
	}
	ins, err := header("inputs")
	if err != nil {
		return nil, err
	}
	outs, err := header("outputs")
	if err != nil {
		return nil, err
	}
	return &TranscriptReader{
		Identity: Identity{Ins: ins, Outs: outs},
		sc:       sc,
		lineNo:   2,
		row:      make([]bitvec.Word, bitvec.RowWords(max(len(ins), len(outs)))),
	}, nil
}

// Next returns the next recorded query and its response, skipping blank
// lines, and io.EOF after the last one.
func (t *TranscriptReader) Next() (in, out []bool, err error) {
	nIn, nOut := len(t.Identity.Ins), len(t.Identity.Outs)
	for t.sc.Scan() {
		t.lineNo++
		line := bytes.TrimSpace(t.sc.Bytes())
		if len(line) == 0 {
			continue
		}
		fields := bytes.Fields(line)
		if len(fields) != 2 || len(fields[0]) != nIn || len(fields[1]) != nOut {
			return nil, nil, fmt.Errorf("transcript line %d malformed: %q", t.lineNo, line)
		}
		in, out = make([]bool, nIn), make([]bool, nOut)
		for i, bits := range [2][]bool{in, out} {
			if j := bitvec.ParseRow(t.row, fields[i]); j >= 0 {
				return nil, nil, fmt.Errorf("transcript line %d: bad bit %q", t.lineNo, fields[i][j])
			}
			bitvec.UnpackBools(bits, t.row)
		}
		return in, out, nil
	}
	if err := t.sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("read transcript: %w", err)
	}
	return nil, nil, io.EOF
}
