package mutation

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// Baseline is MUTATION_BASELINE.json: the survivors triaged as equivalent
// mutants, which do not fail the gate.
type Baseline struct {
	TriagedSurvivors []Triage `json:"triaged_survivors"`
}

// Triage names one survivor by its SourceMutant.String() key and says why
// it is equivalent.
type Triage struct {
	Mutant string `json:"mutant"`
	Reason string `json:"reason"`
}

// ReadBaseline reads a baseline file. Fields other than triaged_survivors,
// and entries without a mutant key or a reason, are errors.
func ReadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("mutation: baseline: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b Baseline
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("mutation: baseline %s: %w", path, err)
	}
	for i, t := range b.TriagedSurvivors {
		if t.Mutant == "" || strings.TrimSpace(t.Reason) == "" {
			return nil, fmt.Errorf("mutation: baseline %s: triaged_survivors[%d] needs a mutant and a reason", path, i)
		}
	}
	return &b, nil
}

// Untriaged returns the report's survivors that b does not triage, in
// report order; a nil b triages nothing. The gate fails when any remain.
func (r *SourceReport) Untriaged(b *Baseline) []SourceMutant {
	triaged := map[string]bool{}
	if b != nil {
		for _, t := range b.TriagedSurvivors {
			triaged[t.Mutant] = true
		}
	}
	var out []SourceMutant
	for _, pr := range r.Packages {
		for _, m := range pr.Survivors {
			if !triaged[m.String()] {
				out = append(out, m)
			}
		}
	}
	return out
}
