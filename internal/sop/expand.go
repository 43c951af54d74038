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
	// Index blockers by variable for fast conflict counting: a blocker
	// blocks an expansion iff after dropping a literal the cube still
	// conflicts with it on no variable.
	out := make(Cover, 0, len(cover))
	for _, c := range cover {
		expanded := expandOne(c, blockers)
		out = append(out, expanded)
	}
	return Minimize(out)
}

// expandOne drops literals of c greedily while the cube stays disjoint from
// all blockers. A literal may be dropped as long as no blocker relies on it
// as its ONLY conflict with the cube; conflict counts are maintained
// incrementally, giving O(|c| * sum-of-conflicts) per cube.
func expandOne(c Cube, blockers Cover) Cube {
	if len(c) == 0 {
		return c
	}
	// Per blocker: which literal positions of c conflict with it.
	conflicts := make([][]int, 0, len(blockers))
	blocked := false
	for _, b := range blockers {
		var pos []int
		i, j := 0, 0
		for i < len(c) && j < len(b) {
			switch {
			case c[i].Var < b[j].Var:
				i++
			case c[i].Var > b[j].Var:
				j++
			default:
				if c[i].Neg != b[j].Neg {
					pos = append(pos, i)
				}
				i++
				j++
			}
		}
		if len(pos) == 0 {
			// c already intersects this blocker: the inputs were not a
			// partition. Refuse to expand.
			blocked = true
			break
		}
		conflicts = append(conflicts, pos)
	}
	if blocked {
		return append(Cube(nil), c...)
	}

	// singletonUses[k] = number of blockers whose only conflict is k.
	cnt := make([]int, len(conflicts))
	singletonUses := make([]int, len(c))
	alive := make([][]int, len(c)) // literal -> blockers still conflicting there
	for bi, pos := range conflicts {
		cnt[bi] = len(pos)
		for _, k := range pos {
			alive[k] = append(alive[k], bi)
		}
		if len(pos) == 1 {
			singletonUses[pos[0]]++
		}
	}
	droppedAt := make([]bool, len(c))
	for {
		dropped := false
		for k := 0; k < len(c); k++ {
			if droppedAt[k] || singletonUses[k] > 0 {
				continue
			}
			droppedAt[k] = true
			dropped = true
			for _, bi := range alive[k] {
				cnt[bi]--
				if cnt[bi] == 1 {
					// Find the surviving conflict and pin it.
					for _, kk := range conflicts[bi] {
						if !droppedAt[kk] {
							singletonUses[kk]++
							break
						}
					}
				}
			}
		}
		if !dropped {
			break
		}
	}
	out := make(Cube, 0, len(c))
	for k, l := range c {
		if !droppedAt[k] {
			out = append(out, l)
		}
	}
	return out
}
