package oracle

// Identity names a black box stably across processes, reconnects, and
// machines. The contest exposes exactly one piece of structural information
// about an oracle — its ordered port names, the two-line greeting an ioserve
// server sends first — so the identity is those names plus a content hash of
// their canonical greeting form. Two oracles with the same identity answer
// the same wire greeting; persistent state keyed by the hash (learned
// circuits, memo corpora) can safely follow the black box across a fleet.
//
// The hash deliberately covers only the greeting, not the function: the
// contest model gives no way to fingerprint the hidden function without
// querying it, and the greeting is what ResilientClient already pins across
// reconnects (ErrServerChanged). A server that swaps the function behind an
// unchanged greeting defeats any client-side identity scheme; the final
// accuracy check is the backstop there, exactly as for silent bit flips.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// Identity is a black box's stable name: its ordered input and output port
// names. The zero value (no ports) is not a valid identity.
type Identity struct {
	Ins  []string
	Outs []string
}

// IdentityOf captures the identity of an oracle. Wrappers (Memo, Counter,
// Recorder, chaos injectors, remote clients) all forward port names, so the
// identity survives any stacking order.
func IdentityOf(o Oracle) Identity {
	return Identity{
		Ins:  append([]string(nil), o.InputNames()...),
		Outs: append([]string(nil), o.OutputNames()...),
	}
}

// Hash returns a hex SHA-256 over a length-prefixed encoding of the port
// names: the stable content-addressed key for per-oracle persistent state.
// The encoding is injective (unlike the space-separated greeting text, where
// a name containing a space could impersonate two names), so distinct
// identities cannot collide by construction.
func (id Identity) Hash() string {
	h := sha256.New()
	side := func(tag byte, names []string) {
		var buf [binary.MaxVarintLen64]byte
		h.Write([]byte{tag})
		n := binary.PutUvarint(buf[:], uint64(len(names)))
		h.Write(buf[:n])
		for _, name := range names {
			n := binary.PutUvarint(buf[:], uint64(len(name)))
			h.Write(buf[:n])
			h.Write([]byte(name))
		}
	}
	side('I', id.Ins)
	side('O', id.Outs)
	return hex.EncodeToString(h.Sum(nil))
}

// Equal reports whether two identities name the same black box: identical
// port names in identical order.
func (id Identity) Equal(other Identity) bool {
	if len(id.Ins) != len(other.Ins) || len(id.Outs) != len(other.Outs) {
		return false
	}
	for i := range id.Ins {
		if id.Ins[i] != other.Ins[i] {
			return false
		}
	}
	for i := range id.Outs {
		if id.Outs[i] != other.Outs[i] {
			return false
		}
	}
	return true
}

// IsZero reports whether the identity is unset (no ports pinned yet).
func (id Identity) IsZero() bool { return len(id.Ins) == 0 && len(id.Outs) == 0 }

// String renders a short human-readable form: arities plus a hash prefix.
func (id Identity) String() string {
	h := id.Hash()
	return fmt.Sprintf("%d-in/%d-out %s", len(id.Ins), len(id.Outs), h[:12])
}
