package mutation

import (
	"fmt"
	"path"
	"strconv"
	"strings"
)

// Lines selects source lines: module-relative, slash-separated file path to
// the set of line numbers. A nil Lines selects every line.
type Lines map[string]map[int]bool

func (l Lines) has(file string, line int) bool {
	return l == nil || l[file][line]
}

// ChangedLines reads the text of `git diff -U0` and selects the lines its
// hunks add or modify on the new side, in the production (non-_test) .go
// files that sit directly in one of the package directories pkgs. Pure
// deletions, deleted files and every other file select nothing. The result
// is never nil, so a diff that touches none of pkgs runs no mutant.
func ChangedLines(diff string, pkgs []string) (Lines, error) {
	inPkgs := make(map[string]bool, len(pkgs))
	for _, p := range pkgs {
		inPkgs[path.Clean(p)] = true
	}
	out := Lines{}
	// header is true between a "diff --git" line and its first hunk, the
	// only place a "+++ " line names a file; in a hunk it is an added line.
	header := false
	file := "" // the current file, "" when it is not selected
	for _, line := range strings.Split(diff, "\n") {
		switch {
		case strings.HasPrefix(line, "diff --git "):
			header, file = true, ""
		case header && strings.HasPrefix(line, "+++ "):
			name, ok := strings.CutPrefix(line[len("+++ "):], "b/")
			if ok && inPkgs[path.Dir(name)] && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
				file = name
			}
		case strings.HasPrefix(line, "@@ "):
			header = false
			if file == "" {
				continue
			}
			start, n, err := newSide(line)
			if err != nil {
				return nil, err
			}
			for l := start; l < start+n; l++ {
				if out[file] == nil {
					out[file] = map[int]bool{}
				}
				out[file][l] = true
			}
		}
	}
	return out, nil
}

// newSide parses the new-side range of a hunk header "@@ -a,b +c,d @@":
// d lines from line c, where a missing ",d" means one line.
func newSide(hunk string) (start, n int, err error) {
	f := strings.Fields(hunk)
	if len(f) < 4 || !strings.HasPrefix(f[2], "+") {
		return 0, 0, fmt.Errorf("mutation: malformed hunk header %q", hunk)
	}
	s, count, hasCount := strings.Cut(f[2][1:], ",")
	start, err = strconv.Atoi(s)
	n = 1
	if err == nil && hasCount {
		n, err = strconv.Atoi(count)
	}
	if err != nil || start < 0 || n < 0 {
		return 0, 0, fmt.Errorf("mutation: malformed hunk header %q", hunk)
	}
	return start, n, nil
}
