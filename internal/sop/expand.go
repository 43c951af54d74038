package sop

// ExpandAgainst implements the ESPRESSO EXPAND step for the special case the
// decision tree produces: `cover` and `blockers` partition the space (every
// assignment satisfies exactly one cube of the union), as FBDT leaf cubes do
// by construction. Each cover cube is greedily widened by dropping literals
// as long as the widened cube stays disjoint from every blocker cube; the
// widened cube can then only absorb space that belonged to sibling cover
// cubes, so the represented function is unchanged while cubes get shorter
// and more mergeable.
//
// A final Minimize pass absorbs the now-redundant siblings.

// ExpandAgainst widens every cube of cover against the blocking cover and
// returns the minimized result. Neither input is modified.
func ExpandAgainst(cover, blockers Cover) Cover {
	if len(cover) == 0 {
		return nil
	}
	var s expandScratch
	out := make(Cover, 0, len(cover))
	for _, c := range cover {
		out = append(out, s.expand(c, blockers))
	}
	return Minimize(out)
}

// expandScratch holds the working arrays of expand, reused from cube to
// cube so that one ExpandAgainst call allocates them only as they grow.
type expandScratch struct {
	pos    []int // every blocker's conflicting literal positions, flat
	posOff []int // blocker bi's positions are pos[posOff[bi]:posOff[bi+1]]
	cnt    []int // per blocker: its conflicts whose literal is not dropped
	// Per literal k: singletonUses[k] counts the blockers whose only
	// remaining conflict is k, and alive[aliveOff[k]:aliveOff[k+1]] lists
	// the blockers conflicting at k, in increasing order.
	singletonUses []int
	aliveOff      []int
	alive         []int
	fill          []int
	dropped       []bool
}

// expand drops literals of c greedily while the cube stays disjoint from
// all blockers. A literal may be dropped as long as no blocker relies on it
// as its ONLY conflict with the cube; conflict counts are maintained
// incrementally, giving O(|c| * sum-of-conflicts) per cube.
func (s *expandScratch) expand(c Cube, blockers Cover) Cube {
	if len(c) == 0 {
		return c
	}
	// Per blocker: which literal positions of c conflict with it.
	s.pos, s.posOff = s.pos[:0], append(s.posOff[:0], 0)
	for _, b := range blockers {
		i, j := 0, 0
		for i < len(c) && j < len(b) {
			switch {
			case c[i].Var < b[j].Var:
				i++
			case c[i].Var > b[j].Var:
				j++
			default:
				if c[i].Neg != b[j].Neg {
					s.pos = append(s.pos, i)
				}
				i++
				j++
			}
		}
		if len(s.pos) == s.posOff[len(s.posOff)-1] {
			// c already intersects this blocker: the inputs were not a
			// partition. Refuse to expand.
			return append(Cube(nil), c...)
		}
		s.posOff = append(s.posOff, len(s.pos))
	}

	nb := len(blockers)
	s.cnt = resize(s.cnt, nb)
	s.singletonUses = resize(s.singletonUses, len(c))
	s.aliveOff = resize(s.aliveOff, len(c)+1)
	s.fill = resize(s.fill, len(c))
	s.alive = resize(s.alive, len(s.pos))
	s.dropped = resize(s.dropped, len(c))
	cnt, singletonUses, dropped := s.cnt, s.singletonUses, s.dropped
	for _, k := range s.pos {
		s.aliveOff[k+1]++
	}
	for k := 0; k < len(c); k++ {
		s.aliveOff[k+1] += s.aliveOff[k]
		s.fill[k] = s.aliveOff[k]
	}
	for bi := 0; bi < nb; bi++ {
		pos := s.pos[s.posOff[bi]:s.posOff[bi+1]]
		cnt[bi] = len(pos)
		for _, k := range pos {
			s.alive[s.fill[k]] = bi
			s.fill[k]++
		}
		if len(pos) == 1 {
			singletonUses[pos[0]]++
		}
	}
	for {
		droppedAny := false
		for k := 0; k < len(c); k++ {
			if dropped[k] || singletonUses[k] > 0 {
				continue
			}
			dropped[k] = true
			droppedAny = true
			for _, bi := range s.alive[s.aliveOff[k]:s.aliveOff[k+1]] {
				cnt[bi]--
				if cnt[bi] == 1 {
					// Find the surviving conflict and pin it.
					for _, kk := range s.pos[s.posOff[bi]:s.posOff[bi+1]] {
						if !dropped[kk] {
							singletonUses[kk]++
							break
						}
					}
				}
			}
		}
		if !droppedAny {
			break
		}
	}
	out := make(Cube, 0, len(c))
	for k, l := range c {
		if !dropped[k] {
			out = append(out, l)
		}
	}
	return out
}

// resize returns buf with length n and every element zero, reusing its
// backing array when it is large enough.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}
