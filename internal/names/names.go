// Package names implements the name-based grouping preprocessing of the
// paper (Sec. IV-A): ports whose names share a common stem and differ only
// in a numeric bit index are grouped into vectors that likely carry binary
// encodings of integers in a datapath.
//
// Recognized index spellings, in priority order: "a[3]", "a(3)", "a<3>",
// "a_3", and a bare trailing number "a3". The stem is the name with the
// index removed. Bit index 0 is the least significant bit, matching the
// paper's Example 1 where (a2,a1,a0) = (1,1,0) encodes 6.
package names

import (
	"sort"
	"strconv"
	"strings"
)

// Vector is a group of ports interpreted as one binary-encoded integer.
type Vector struct {
	// Stem is the shared name prefix.
	Stem string
	// Ports holds the port positions (indices into the original name
	// list), ordered LSB first: Ports[0] is bit 0.
	Ports []int
	// BitIndex holds the parsed numeric indices aligned with Ports.
	BitIndex []int
}

// Width returns the number of bits in the vector.
func (v Vector) Width() int { return len(v.Ports) }

// Grouping is the result of grouping a port name list.
type Grouping struct {
	// Vectors are the multi-bit groups, ordered by first port position.
	Vectors []Vector
	// Singles are port positions not in any vector, ascending.
	Singles []int
}

// parsed is one name split into stem and index.
type parsed struct {
	stem  string
	index int
	ok    bool
}

// split splits a port name into a stem and a numeric bit index; ok is false
// when the name carries no recognizable index.
func split(name string) parsed {
	for _, brackets := range [...][2]byte{{'[', ']'}, {'(', ')'}, {'<', '>'}} {
		if len(name) >= 3 && name[len(name)-1] == brackets[1] {
			if open := strings.LastIndexByte(name, brackets[0]); open > 0 {
				if idx, err := strconv.Atoi(name[open+1 : len(name)-1]); err == nil && idx >= 0 {
					return parsed{stem: name[:open], index: idx, ok: true}
				}
			}
		}
	}
	// a_3
	if us := strings.LastIndexByte(name, '_'); us > 0 && us < len(name)-1 {
		if idx, err := strconv.Atoi(name[us+1:]); err == nil && idx >= 0 {
			return parsed{stem: name[:us], index: idx, ok: true}
		}
	}
	// bare trailing digits: a3 (stem must be non-empty and non-numeric)
	cut := len(name)
	for cut > 0 && name[cut-1] >= '0' && name[cut-1] <= '9' {
		cut--
	}
	// The char before the digits must not be '_': "_5" has an empty stem
	// under the underscore rule and stays unindexed.
	if cut > 0 && cut < len(name) && name[cut-1] != '_' {
		if idx, err := strconv.Atoi(name[cut:]); err == nil {
			return parsed{stem: name[:cut], index: idx, ok: true}
		}
	}
	return parsed{stem: name}
}

// Group groups the port names into vectors and singles.
//
// A group becomes a vector only when it has at least two members and its
// parsed bit indices are all distinct; otherwise its members stay singles.
// Vectors are ordered by the position of their lowest port so the result is
// deterministic.
func Group(portNames []string) Grouping {
	groups := make(map[string][]member)
	var order []string
	single := make(map[int]bool)
	for pos, name := range portNames {
		p := split(name)
		if !p.ok {
			single[pos] = true
			continue
		}
		if _, seen := groups[p.stem]; !seen {
			order = append(order, p.stem)
		}
		groups[p.stem] = append(groups[p.stem], member{pos: pos, index: p.index})
	}

	var g Grouping
	for _, stem := range order {
		ms := groups[stem]
		if len(ms) < 2 || hasDuplicateIndex(ms) {
			for _, m := range ms {
				single[m.pos] = true
			}
			continue
		}
		sort.Slice(ms, func(i, j int) bool { return ms[i].index < ms[j].index })
		v := Vector{Stem: stem}
		for _, m := range ms {
			v.Ports = append(v.Ports, m.pos)
			v.BitIndex = append(v.BitIndex, m.index)
		}
		g.Vectors = append(g.Vectors, v)
	}
	sort.Slice(g.Vectors, func(i, j int) bool { return g.Vectors[i].Ports[0] < g.Vectors[j].Ports[0] })
	for pos := range portNames {
		if single[pos] {
			g.Singles = append(g.Singles, pos)
		}
	}
	sort.Ints(g.Singles)
	return g
}

type member struct {
	pos   int
	index int
}

func hasDuplicateIndex(ms []member) bool {
	seen := make(map[int]bool, len(ms))
	for _, m := range ms {
		if seen[m.index] {
			return true
		}
		seen[m.index] = true
	}
	return false
}

// Decode interprets the assignment bits of the vector's ports as an unsigned
// integer (Ports[0] = LSB). Vectors wider than 64 bits are truncated to the
// low 64 bits.
func (v Vector) Decode(assignment []bool) uint64 {
	var x uint64
	for i, pos := range v.Ports {
		if i >= 64 {
			break
		}
		if assignment[pos] {
			x |= 1 << uint(i)
		}
	}
	return x
}

// Encode writes the low bits of value into the assignment at the vector's
// port positions.
func (v Vector) Encode(value uint64, assignment []bool) {
	for i, pos := range v.Ports {
		if i < 64 {
			assignment[pos] = value>>uint(i)&1 == 1
		} else {
			assignment[pos] = false
		}
	}
}
