package analysis

import (
	"go/types"
	"reflect"
)

// The facts mechanism: analyzer summaries that survive the package
// boundary. An analyzer attaches a fact to an exported object while
// analyzing its defining package (ExportObjectFact); Run analyzes packages
// in dependency order, so when a dependent package is analyzed the facts of
// every module package it imports are already in the run's map, and the
// analyzer asks for them by object (ImportObjectFact). This is the x/tools
// facts API reduced to what this repo needs: object facts only, on exported
// package-level functions, variables, types, and exported methods of
// exported named types — the objects a dependent package can name.

// A Fact is an analyzer-defined summary attached to an object. Concrete
// fact types are pointers to structs; a fact of one type never answers a
// lookup for another.
type Fact interface {
	// AFact marks the type as a fact; it has no behaviour.
	AFact()
}

// factKey addresses one fact in a run: the object and the fact's type.
type factKey struct {
	obj types.Object
	typ reflect.Type
}

// objectFactKey returns the key of fact on obj, and whether obj can carry
// facts at all: exported package-level objects, and exported methods
// (interface methods included) of exported package-level named types. An
// instance of a generic function or method shares its origin's facts.
func objectFactKey(obj types.Object, fact Fact) (factKey, bool) {
	if obj == nil || obj.Pkg() == nil || !obj.Exported() {
		return factKey{}, false
	}
	key := factKey{obj: obj, typ: reflect.TypeOf(fact)}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		key.obj = fn
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return factKey{}, false
			}
			tn := named.Obj()
			return key, tn.Exported() && tn.Parent() == tn.Pkg().Scope()
		}
	}
	return key, obj.Parent() == obj.Pkg().Scope()
}

// ExportObjectFact attaches fact to obj. Only objects that can carry facts
// (see objectFactKey) take one; exporting on anything else is a silent
// no-op, so analyzers may call this unconditionally while walking a call
// graph. Objects outside the pass's package are rejected the same way — a
// pass speaks only for the package it analyzes.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if obj == nil || obj.Pkg() != p.Pkg {
		return
	}
	if key, ok := objectFactKey(obj, fact); ok {
		p.facts[key] = fact
	}
}

// ImportObjectFact copies the fact of fact's concrete type attached to obj
// into fact, a non-nil pointer, reporting whether one was found. The object
// may belong to any module package the run analyzed before this one, or to
// the current package (reading back this pass's own exports, e.g. from a
// later phase of the same analyzer).
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	key, ok := objectFactKey(obj, fact)
	if !ok {
		return false
	}
	stored, ok := p.facts[key]
	if ok {
		reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(stored).Elem())
	}
	return ok
}
