// Package logicregression learns compact gate-level circuits for black-box
// Boolean functions over high dimensional input spaces — a reproduction of
// "Circuit Learning for Logic Regression on High Dimensional Boolean Space"
// (Chen, Huang, Lee, Jiang; DAC 2020), the winning approach of the 2019
// ICCAD CAD Contest Problem A.
//
// The black box is anything implementing Oracle: it answers full input
// assignments with full output assignments and exposes port names. Learn
// runs the paper's five-step pipeline (name-based grouping, template
// matching, support identification, decision-tree construction, circuit
// optimization) and returns a netlist of 2-input primitive gates plus a
// per-output report.
//
//	o := logicregression.NewCircuitOracle(hiddenCircuit)
//	res := logicregression.Learn(o, logicregression.Options{Seed: 1})
//	rep := logicregression.Accuracy(o, logicregression.NewCircuitOracle(res.Circuit),
//		logicregression.EvalConfig{Patterns: 100000})
//	fmt.Println(res.Size, rep.Accuracy)
//
// Everything underneath — the gate-level netlist package, AIG, CDCL SAT
// solver, BDD engine, two-level minimizer, sampling machinery, template
// matcher, FBDT engine, optimization pipeline, baselines, and the 20
// synthetic contest cases — lives in internal/ packages; this package is the
// stable public surface.
package logicregression

import (
	"io"

	"logicregression/internal/cases"
	"logicregression/internal/circuit"
	"logicregression/internal/core"
	"logicregression/internal/eval"
	"logicregression/internal/oracle"
)

// Oracle is the black-box IO-relation generator interface (the contest's
// iogen): full assignment in, full assignment out, names observable.
type Oracle = oracle.Oracle

// Circuit is a combinational network of 2-input primitive gates.
type Circuit = circuit.Circuit

// Options configures Learn; the zero value is a sensible default.
type Options = core.Options

// Result is the outcome of Learn: the circuit plus per-output reports.
type Result = core.Result

// OutputReport describes how one output was learned.
type OutputReport = core.OutputReport

// EvalConfig configures Accuracy.
type EvalConfig = eval.Config

// Report is an accuracy measurement.
type Report = eval.Report

// Case is one of the 20 synthetic contest benchmarks.
type Case = cases.Case

// Learn runs the five-step learning pipeline against the black box.
func Learn(o Oracle, opts Options) *Result {
	return core.Learn(o, opts)
}

// NewCircuitOracle wraps a circuit as a black box. The circuit must not
// change once the oracle is queried: a learn asks it one output at a time,
// from copies of the output cones that the oracle keeps.
func NewCircuitOracle(c *Circuit) Oracle {
	return oracle.FromCircuit(c)
}

// NewFuncOracle adapts a plain function to the Oracle interface.
func NewFuncOracle(inputNames, outputNames []string, f func([]bool) []bool) Oracle {
	return &oracle.FuncOracle{Ins: inputNames, Outs: outputNames, F: f}
}

// Accuracy measures the contest hit rate of learned against golden over the
// three-pool test set of the paper's Section V.
func Accuracy(golden, learned Oracle, cfg EvalConfig) Report {
	return eval.Measure(golden, learned, cfg)
}

// Cases returns the 20 synthetic Table II benchmarks in paper order.
func Cases() []*Case {
	return cases.All()
}

// CaseByName returns one synthetic benchmark ("case_1" .. "case_20").
func CaseByName(name string) (*Case, error) {
	return cases.ByName(name)
}

// WriteNetlist serializes a circuit in the text netlist format.
func WriteNetlist(w io.Writer, c *Circuit) error {
	return circuit.WriteNetlist(w, c)
}

// ParseNetlist reads a circuit in the text netlist format.
func ParseNetlist(r io.Reader) (*Circuit, error) {
	return circuit.ParseNetlist(r)
}
