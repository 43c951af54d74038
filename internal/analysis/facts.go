package analysis

import (
	"encoding/json"
	"fmt"
	"go/types"
	"reflect"
	"sort"
)

// The facts mechanism: per-package analyzer summaries that survive the
// package boundary. An analyzer attaches a fact to an exported object while
// analyzing its defining package (ExportObjectFact); when a downstream
// package is analyzed, the driver has already loaded the facts of every
// dependency, and the analyzer asks for them by object
// (ImportObjectFact). This is the modular bottom-up design of the x/tools
// facts mechanism, reduced to what this repo needs: object facts only, on
// exported package-level functions, variables, types, and exported methods
// of exported named types — the objects a dependent package can actually
// name through export data.
//
// Facts serialize to deterministic JSON, stored inside each unit's cache
// entry, so a package's fact blob can be content-hashed into its dependents' cache
// keys: a changed callee summary invalidates exactly the callers that
// could observe it.

// A Fact is an analyzer-defined summary attached to an object. Concrete
// fact types must be pointers to JSON-serializable structs, registered via
// Analyzer.FactTypes, and must have distinct type names across the analyzer
// set loaded into one driver.
type Fact interface {
	// AFact marks the type as a fact; it has no behaviour.
	AFact()
}

// ObjectFactKey returns the stable cross-package key addressing obj in a
// facts file, and whether the object can carry exported facts at all:
// "Name" for exported package-level objects, "Type.Method" for exported
// methods (including interface methods) of exported named types.
func ObjectFactKey(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil || !obj.Exported() {
		return "", false
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			named := namedRecv(recv.Type())
			if named == nil {
				return "", false
			}
			tn := named.Obj()
			if !tn.Exported() || tn.Parent() != tn.Pkg().Scope() {
				return "", false
			}
			return tn.Name() + "." + fn.Name(), true
		}
	}
	// Package-level only: local objects are invisible through export data.
	if obj.Parent() != obj.Pkg().Scope() {
		return "", false
	}
	return obj.Name(), true
}

// namedRecv unwraps a method receiver type to its named type, through one
// level of pointer.
func namedRecv(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// factKey addresses one fact within a package: the object key plus the
// fact's registered type name.
type factKey struct {
	Object string
	Type   string
}

// PackageFacts holds the decoded facts one package exports.
type PackageFacts struct {
	Path string
	m    map[factKey]Fact
}

// NewPackageFacts returns an empty fact set for the package path.
func NewPackageFacts(path string) *PackageFacts {
	return &PackageFacts{Path: path, m: make(map[factKey]Fact)}
}

// Len reports the number of facts in the set.
func (pf *PackageFacts) Len() int {
	if pf == nil {
		return 0
	}
	return len(pf.m)
}

// factName is the wire name of a fact's concrete type.
func factName(f Fact) string {
	t := reflect.TypeOf(f)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return t.Name()
}

// A FactRegistry maps wire names back to concrete fact types for decoding.
type FactRegistry map[string]reflect.Type

// NewFactRegistry collects the fact types declared by the analyzers,
// rejecting wire-name collisions between distinct types.
func NewFactRegistry(analyzers []*Analyzer) (FactRegistry, error) {
	reg := make(FactRegistry)
	for _, a := range analyzers {
		for _, f := range a.FactTypes {
			name := factName(f)
			t := reflect.TypeOf(f)
			if prev, ok := reg[name]; ok {
				if prev != t {
					return nil, fmt.Errorf("fact type name %q registered twice with different types", name)
				}
				continue
			}
			if t.Kind() != reflect.Pointer {
				return nil, fmt.Errorf("fact type %s (analyzer %s) must be a pointer", name, a.Name)
			}
			reg[name] = t
		}
	}
	return reg, nil
}

// new allocates a zero fact of the registered wire name.
func (r FactRegistry) new(name string) (Fact, bool) {
	t, ok := r[name]
	if !ok {
		return nil, false
	}
	return reflect.New(t.Elem()).Interface().(Fact), true
}

// serializedFact is one line of the facts wire format.
type serializedFact struct {
	Object string          `json:"object"`
	Type   string          `json:"type"`
	Value  json.RawMessage `json:"value"`
}

type serializedFacts struct {
	Package string           `json:"package"`
	Facts   []serializedFact `json:"facts"`
}

// Encode serializes the fact set deterministically: facts sorted by
// (object, type), values as canonical encoding/json output. Byte equality
// of two encodings therefore implies fact equality, which is what lets the
// driver hash a dependency's facts into a cache key.
func (pf *PackageFacts) Encode() ([]byte, error) {
	out := serializedFacts{Package: pf.Path, Facts: []serializedFact{}}
	for k, f := range pf.m {
		v, err := json.Marshal(f)
		if err != nil {
			return nil, fmt.Errorf("fact %s on %s: %v", k.Type, k.Object, err)
		}
		out.Facts = append(out.Facts, serializedFact{Object: k.Object, Type: k.Type, Value: v})
	}
	sort.Slice(out.Facts, func(i, j int) bool {
		a, b := out.Facts[i], out.Facts[j]
		if a.Object != b.Object {
			return a.Object < b.Object
		}
		return a.Type < b.Type
	})
	return json.Marshal(out)
}

// DecodePackageFacts parses a facts blob produced by Encode. Facts whose
// type is not in the registry are skipped, not errors: a fact written by a
// newer analyzer set must not wedge an older reader, and vice versa.
func DecodePackageFacts(data []byte, reg FactRegistry) (*PackageFacts, error) {
	if len(data) == 0 {
		return nil, nil
	}
	var in serializedFacts
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("facts blob: %v", err)
	}
	pf := NewPackageFacts(in.Package)
	for _, sf := range in.Facts {
		f, ok := reg.new(sf.Type)
		if !ok {
			continue
		}
		if err := json.Unmarshal(sf.Value, f); err != nil {
			return nil, fmt.Errorf("fact %s on %s: %v", sf.Type, sf.Object, err)
		}
		pf.m[factKey{Object: sf.Object, Type: sf.Type}] = f
	}
	return pf, nil
}

// A FactReader resolves the exported facts of a package by import path,
// returning nil when the package has none (not analyzed, outside the
// module, or simply silent).
type FactReader func(path string) *PackageFacts

// ExportObjectFact attaches fact to obj in the pass's output fact set. Only
// objects addressable through export data can carry facts
// (ObjectFactKey); exporting on anything else is a silent no-op, so
// analyzers may call this unconditionally while walking a call graph.
// Objects outside the pass's package are rejected the same way — a pass
// speaks only for the package it analyzed.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if p.exported == nil || obj == nil || obj.Pkg() != p.Pkg {
		return
	}
	key, ok := ObjectFactKey(obj)
	if !ok {
		return
	}
	p.exported.m[factKey{Object: key, Type: factName(fact)}] = fact
}

// ImportObjectFact copies the fact of fact's concrete type attached to obj
// into fact, reporting whether one was found. The object may belong to any
// dependency package whose facts the driver loaded, or to the current
// package (reading back this pass's own exports, e.g. from a later phase
// of the same analyzer).
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	key, ok := ObjectFactKey(obj)
	if !ok {
		return false
	}
	k := factKey{Object: key, Type: factName(fact)}
	var stored Fact
	if obj.Pkg() == p.Pkg {
		if p.exported != nil {
			stored = p.exported.m[k]
		}
	} else if p.readFacts != nil {
		if pf := p.readFacts(obj.Pkg().Path()); pf != nil {
			stored = pf.m[k]
		}
	}
	if stored == nil {
		return false
	}
	sv := reflect.ValueOf(stored)
	fv := reflect.ValueOf(fact)
	if sv.Type() != fv.Type() || fv.Kind() != reflect.Pointer || fv.IsNil() {
		return false
	}
	fv.Elem().Set(sv.Elem())
	return true
}
