package analyzers

import (
	"go/ast"
	"go/types"

	"logicregression/internal/analysis"
)

// AtomicSafe bans the package-level sync/atomic functions (AddInt64,
// LoadUint32, CompareAndSwapPointer, ...), called or referenced, qualified
// or dot-imported. They
// operate on plain words, which other code may still read or write
// non-atomically, and 64-bit words reached through them fault when
// misaligned on 32-bit platforms. The typed atomics (atomic.Int64,
// atomic.Bool, atomic.Pointer, ...) close both holes by construction: a
// plain access does not compile, the 64-bit types align themselves, and
// `go vet`'s copylocks check reports copies. There is no //logicreg:allow
// escape hatch.
var AtomicSafe = &analysis.Analyzer{
	Name: "atomicsafe",
	Doc: "flags any use of a package-level sync/atomic function; " +
		"use the typed atomics (atomic.Int64, atomic.Bool, atomic.Pointer, ...)",
	Run: runAtomicSafe,
}

func runAtomicSafe(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			// Resolving the identifier matches calls and references alike,
			// package-qualified or dot-imported.
			fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" ||
				fn.Type().(*types.Signature).Recv() != nil {
				return true
			}
			pass.Reportf(id.Pos(),
				"sync/atomic.%s works on a plain word that other code can touch non-atomically; "+
					"use a typed atomic (atomic.Int64, atomic.Bool, atomic.Pointer, ...)", fn.Name())
			return true
		})
	}
	return nil
}
