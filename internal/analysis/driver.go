package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// The driver: locate packages and compiler export data with
// `go list -export -deps -json`, type-check each target package from source
// against that export data, and run the analyzers. This is what
// `repolint ./...` does; CheckFiles is the fact-less variant the fixture
// tests use.

// A Unit is one package ready for analysis.
type Unit struct {
	ImportPath string
	Dir        string
	GoFiles    []string // absolute paths, production files only
	// Imports are the direct import paths, the edges of the dependency
	// DAG the parallel driver schedules over.
	Imports []string

	pkgs map[string]*listedPackage // full dependency closure, shared
	res  *exportResolver           // lazy export-data index, shared
}

// listedPackage is the subset of `go list -json` output the driver reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string // absolute after LoadPackages
	Imports    []string
	DepOnly    bool
	Standard   bool
	Incomplete bool
	Error      *struct{ Err string }
}

// LoadPackages runs `go list` in dir and returns one Unit per matched
// package, plus the shared dependency closure. Export data is NOT resolved
// here: the -export flag is what makes go list slow (it has to ensure
// compiled export files exist for the whole closure), and a warm cached run
// never type-checks anything, so the export index is resolved lazily on the
// first cache miss instead (exportResolver).
func LoadPackages(dir string, patterns ...string) ([]*Unit, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-deps",
		"-json=ImportPath,Dir,GoFiles,Imports,DepOnly,Standard,Incomplete,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	pkgs := make(map[string]*listedPackage)
	res := &exportResolver{dir: dir, patterns: patterns}
	var units []*Unit
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		for i, f := range p.GoFiles {
			if !filepath.IsAbs(f) {
				p.GoFiles[i] = filepath.Join(p.Dir, f)
			}
		}
		pkgs[p.ImportPath] = p
		if p.DepOnly {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		units = append(units, &Unit{
			ImportPath: p.ImportPath,
			Dir:        p.Dir,
			GoFiles:    p.GoFiles,
			Imports:    p.Imports,
			pkgs:       pkgs,
			res:        res,
		})
	}
	return units, nil
}

// An exportResolver materializes the import-path -> export-data index on
// first use, so runs that replay everything from the analysis cache never
// pay for `go list -export` over the dependency closure.
type exportResolver struct {
	dir      string
	patterns []string

	once  sync.Once
	files map[string]string
	err   error
}

// resolve runs `go list -export` once and returns the export index.
func (r *exportResolver) resolve() (map[string]string, error) {
	r.once.Do(func() {
		args := append([]string{"list", "-e", "-export", "-deps",
			"-json=ImportPath,Export"}, r.patterns...)
		cmd := exec.Command("go", args...)
		cmd.Dir = r.dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			r.err = fmt.Errorf("go list -export: %v\n%s", err, stderr.String())
			return
		}
		r.files = make(map[string]string)
		dec := json.NewDecoder(bytes.NewReader(out))
		for {
			var p listedPackage
			if err := dec.Decode(&p); errors.Is(err, io.EOF) {
				break
			} else if err != nil {
				r.err = fmt.Errorf("go list -export output: %v", err)
				return
			}
			if p.Export != "" {
				r.files[p.ImportPath] = p.Export
			}
		}
	})
	return r.files, r.err
}

// lookup is the exportLookup view of the resolver.
func (r *exportResolver) lookup(path string) (string, bool) {
	files, err := r.resolve()
	if err != nil {
		return "", false
	}
	file, ok := files[path]
	return file, ok
}

// ExportIndex returns the import-path -> export-data map covering the
// pattern's full dependency closure, for callers that type-check sources
// outside any listed package (the analyzer test fixtures).
func ExportIndex(dir string, patterns ...string) (map[string]string, error) {
	units, err := LoadPackages(dir, patterns...)
	if err != nil {
		return nil, err
	}
	if len(units) == 0 {
		return nil, fmt.Errorf("no packages matched %v", patterns)
	}
	return units[0].res.resolve()
}

// An exportLookup resolves an import path to its compiler export data file.
type exportLookup func(path string) (string, bool)

// exportImporter resolves imports from compiler export data files.
func exportImporter(fset *token.FileSet, exports exportLookup) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports(path)
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// A Driver runs analyzers over a set of units in dependency order,
// fanning independent units out across goroutines and replaying cached
// results for units whose inputs are unchanged. Output is deterministic
// regardless of schedule: results come back sorted by import path, each
// unit's diagnostics sorted by SortDiagnostics, and the facts a unit sees
// depend only on its dependency closure (complete before it starts), never
// on sibling timing.
type Driver struct {
	Analyzers []*Analyzer
	// Parallel bounds concurrently-analyzed units; values < 1 mean
	// sequential. Scheduling stays topological either way.
	Parallel int
	// Cache, when non-nil, short-circuits units whose cache key matches
	// a stored entry.
	Cache *Cache
	// Version participates in every cache key; it defaults to the
	// repolint version constant and exists as a field so tests can force
	// invalidation.
	Version string
}

// A UnitResult is one unit's outcome.
type UnitResult struct {
	Unit   *Unit
	Diags  []Diagnostic
	Cached bool // replayed from the cache, nothing parsed or type-checked
	Err    error
}

// RunStats summarizes one Driver.Run.
type RunStats struct {
	Units  int
	Cached int
	Failed int
}

// Run analyzes the units, returning one result per unit sorted by import
// path. Per-unit failures are recorded in the result, not returned: a
// broken package must not hide its siblings' findings.
func (d *Driver) Run(units []*Unit) ([]UnitResult, RunStats, error) {
	reg, err := NewFactRegistry(d.Analyzers)
	if err != nil {
		return nil, RunStats{}, err
	}
	version := d.Version
	if version == "" {
		version = Version
	}

	sorted := make([]*Unit, len(units))
	copy(sorted, units)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ImportPath < sorted[j].ImportPath })

	byPath := make(map[string]int, len(sorted))
	for i, u := range sorted {
		byPath[u.ImportPath] = i
	}
	done := make([]chan struct{}, len(sorted))
	for i := range done {
		done[i] = make(chan struct{})
	}

	// Facts, cache keys, and transitive fact hashes, published under mu as
	// units finish. A unit only ever reads entries for its dependency
	// closure, which the done-channel waits guarantee are complete.
	var mu sync.Mutex
	facts := make(map[string]*PackageFacts)
	factHash := make(map[string]string)
	keys := make(map[string]string)
	reader := FactReader(func(path string) *PackageFacts {
		mu.Lock()
		defer mu.Unlock()
		return facts[path]
	})

	width := d.Parallel
	if width < 1 {
		width = 1
	}
	sem := make(chan struct{}, width)
	fhc := newFileHashCache()
	srcMemo := &srcHashMemo{m: make(map[string]string)}

	results := make([]UnitResult, len(sorted))
	var wg sync.WaitGroup
	for i, u := range sorted {
		wg.Add(1)
		go func(i int, u *Unit) {
			defer wg.Done()
			defer close(done[i])
			for _, imp := range u.Imports {
				if j, ok := byPath[imp]; ok {
					<-done[j]
				}
			}
			sem <- struct{}{}
			defer func() { <-sem }()

			depState := func(path string) (key, fh string, ok bool) {
				mu.Lock()
				defer mu.Unlock()
				key, ok1 := keys[path]
				fh, ok2 := factHash[path]
				return key, fh, ok1 && ok2
			}
			diags, blob, key, cached, err := d.runUnit(u, reg, version, reader, depState, fhc, srcMemo)
			pf, decErr := DecodePackageFacts(blob, reg)
			if err == nil && decErr != nil {
				err = decErr
			}
			if pf == nil {
				pf = NewPackageFacts(u.ImportPath)
			}

			// The transitive fact hash: this unit's blob plus every
			// direct dep's hash, so any fact change anywhere below
			// reaches every dependent's cache key.
			h := newHasher()
			h.Add("facts", blob)
			for _, imp := range sortedImports(u) {
				mu.Lock()
				dep := factHash[imp]
				mu.Unlock()
				h.AddString("dep "+imp, dep)
			}

			mu.Lock()
			facts[u.ImportPath] = pf
			factHash[u.ImportPath] = h.Sum()
			keys[u.ImportPath] = key
			mu.Unlock()
			results[i] = UnitResult{Unit: u, Diags: diags, Cached: cached, Err: err}
		}(i, u)
	}
	wg.Wait()

	stats := RunStats{Units: len(sorted)}
	for _, r := range results {
		if r.Cached {
			stats.Cached++
		}
		if r.Err != nil {
			stats.Failed++
		}
	}
	return results, stats, nil
}

// runUnit analyzes one unit (or replays it from the cache), returning its
// diagnostics, encoded fact blob, and cache key. depState resolves a
// completed dependency unit's published cache key and transitive fact hash.
func (d *Driver) runUnit(u *Unit, reg FactRegistry, version string, reader FactReader,
	depState func(string) (string, string, bool), fhc *fileHashCache,
	srcMemo *srcHashMemo) (diags []Diagnostic, blob []byte, key string, cached bool, err error) {
	key, keyErr := d.cacheKey(u, version, depState, fhc, srcMemo)
	if d.Cache != nil && keyErr == nil {
		if e, ok := d.Cache.get(key); ok {
			return e.Diagnostics, e.Facts, key, true, nil
		}
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, path := range u.GoFiles {
		f, perr := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if perr != nil {
			return nil, nil, key, false, perr
		}
		files = append(files, f)
	}
	diags, exported, err := checkFiles(fset, files, u.ImportPath, u.res.lookup, d.Analyzers, reader)
	if err != nil {
		return nil, nil, key, false, err
	}
	blob, err = exported.Encode()
	if err != nil {
		return nil, nil, key, false, err
	}
	if d.Cache != nil && keyErr == nil {
		if diags == nil {
			diags = []Diagnostic{} // encode as [], so replay round-trips
		}
		d.Cache.put(key, &cacheEntry{ImportPath: u.ImportPath, Diagnostics: diags, Facts: blob})
	}
	return diags, blob, key, false, nil
}

// cacheKey computes the unit's content hash; see the Cache doc comment for
// the fields. Dependency state comes from the published maps, so this must
// only run after the unit's dependencies have completed.
//
// Dependencies contribute in one of three ways:
//   - another unit in this run: its published cache key (which transitively
//     covers its own sources and dependencies) plus its transitive fact hash;
//   - a non-standard package outside the run (narrow patterns, module
//     cache): a recursive hash over its sources (depSourceHash);
//   - a standard-library package: nothing beyond the import path — the
//     toolchain stamp pins its content.
//
// Export data never has to be consulted, which is what lets a fully-warm
// run skip `go list -export` entirely.
func (d *Driver) cacheKey(u *Unit, version string, depState func(string) (string, string, bool),
	fhc *fileHashCache, srcMemo *srcHashMemo) (string, error) {
	h := newHasher()
	h.AddString("version", version)
	h.AddString("toolchain", runtime.Version())
	h.AddString("platform", runtime.GOOS+"/"+runtime.GOARCH)
	for _, a := range d.Analyzers {
		h.AddString("analyzer", a.Name)
		for _, f := range a.FactTypes {
			h.AddString("fact", factName(f))
		}
	}
	h.AddString("package", u.ImportPath)
	for _, path := range u.GoFiles {
		sum, err := fhc.hash(path)
		if err != nil {
			return "", err
		}
		h.AddString("src "+filepath.Base(path), sum)
	}
	for _, imp := range sortedImports(u) {
		if key, fh, ok := depState(imp); ok {
			h.AddString("depkey "+imp, key)
			h.AddString("depfacts "+imp, fh)
			continue
		}
		sum, err := depSourceHash(imp, u.pkgs, fhc, srcMemo)
		if err != nil {
			return "", err
		}
		if sum != "" {
			h.AddString("depsrc "+imp, sum)
		}
	}
	return h.Sum(), nil
}

// srcHashMemo caches depSourceHash results for one driver run.
type srcHashMemo struct {
	mu sync.Mutex
	m  map[string]string
}

// depSourceHash recursively hashes the sources of a non-standard dependency
// that is not analyzed as a unit in this run, covering its own files and
// those of its non-standard imports. Standard-library packages hash to ""
// (the toolchain stamp in the cache key pins them).
func depSourceHash(path string, pkgs map[string]*listedPackage, fhc *fileHashCache,
	memo *srcHashMemo) (string, error) {
	p := pkgs[path]
	if p == nil || p.Standard {
		return "", nil
	}
	memo.mu.Lock()
	sum, ok := memo.m[path]
	memo.mu.Unlock()
	if ok {
		return sum, nil
	}

	h := newHasher()
	h.AddString("path", path)
	for _, f := range p.GoFiles {
		fsum, err := fhc.hash(f)
		if err != nil {
			return "", err
		}
		h.AddString("src "+filepath.Base(f), fsum)
	}
	imps := make([]string, len(p.Imports))
	copy(imps, p.Imports)
	sort.Strings(imps)
	for _, imp := range imps {
		sub, err := depSourceHash(imp, pkgs, fhc, memo)
		if err != nil {
			return "", err
		}
		if sub != "" {
			h.AddString("dep "+imp, sub)
		}
	}
	sum = h.Sum()

	memo.mu.Lock()
	memo.m[path] = sum
	memo.mu.Unlock()
	return sum, nil
}

// sortedImports returns the unit's direct imports in stable order.
func sortedImports(u *Unit) []string {
	imps := make([]string, len(u.Imports))
	copy(imps, u.Imports)
	sort.Strings(imps)
	return imps
}

// CheckFiles type-checks an already-parsed file set as one package against
// the given export-data index and runs the analyzers without cross-package
// facts. Files named *_test.go are type-checked but not analyzed.
func CheckFiles(fset *token.FileSet, files []*ast.File, importPath string,
	exports map[string]string, analyzers []*Analyzer) ([]Diagnostic, error) {
	diags, _, err := CheckFilesWithFacts(fset, files, importPath, exports, analyzers, nil)
	return diags, err
}

// CheckFilesWithFacts is CheckFiles with the facts mechanism wired in:
// imported resolves dependency fact sets (nil for none), and the returned
// PackageFacts carries whatever the analyzers exported for this package.
func CheckFilesWithFacts(fset *token.FileSet, files []*ast.File, importPath string,
	exports map[string]string, analyzers []*Analyzer,
	imported FactReader) ([]Diagnostic, *PackageFacts, error) {
	lookup := func(path string) (string, bool) {
		file, ok := exports[path]
		return file, ok
	}
	return checkFiles(fset, files, importPath, lookup, analyzers, imported)
}

// checkFiles is the shared core of CheckFiles/CheckFilesWithFacts and the
// driver: type-check against lazily-resolved export data, run the
// analyzers, collect diagnostics and exported facts.
func checkFiles(fset *token.FileSet, files []*ast.File, importPath string,
	exports exportLookup, analyzers []*Analyzer,
	imported FactReader) ([]Diagnostic, *PackageFacts, error) {

	conf := types.Config{
		Importer: exportImporter(fset, exports),
		Error:    func(error) {}, // collect the first error from Check itself
	}
	info := newInfo()
	pkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("typecheck %s: %v", importPath, err)
	}

	var analyzed []*ast.File
	for _, f := range files {
		name := fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		analyzed = append(analyzed, f)
	}

	exported := NewPackageFacts(importPath)
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     analyzed,
			Pkg:       pkg,
			TypesInfo: info,
			report:    func(d Diagnostic) { diags = append(diags, d) },
			readFacts: imported,
			exported:  exported,
		}
		if err := a.Run(pass); err != nil {
			return nil, nil, fmt.Errorf("%s on %s: %v", a.Name, importPath, err)
		}
	}
	SortDiagnostics(diags)
	return diags, exported, nil
}

// SortDiagnostics orders diags by position, breaking position ties by
// analyzer name and then message so multi-analyzer output at one line is
// deterministic across runs and schedules.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if diags[i].Analyzer != diags[j].Analyzer {
			return diags[i].Analyzer < diags[j].Analyzer
		}
		return diags[i].Message < diags[j].Message
	})
}
