// Package store is the persistence layer: an append-only, checksummed memo
// log that lets learns survive process restarts, and a content-addressed
// circuit store that lets sessions warm-start from previously learned
// results. Everything writes through the vfs seam so chaos drills can
// inject torn writes, fsync errors, read rot, and exact-offset crashes.
//
// The cardinal invariant is byte-identity: attaching the store to a learn
// never changes its result. Persisted memo entries are answers a
// deterministic oracle already gave, so preloading them only converts
// misses into hits; a failing disk degrades the store to memory-only and
// the learn proceeds untouched. The store may lose data (that costs
// re-computation) but must never serve a wrong byte as a right one — every
// record and blob is checksummed and verified on read.
//
// Both logs — the memo log and the circuit index — are one recordLog
// each, and there is one commit policy. Every append reaches the file in
// one write, so a killed process loses nothing it appended. The memo log
// fsyncs once per memoSyncEvery appends, around a compaction and on
// Close; the circuit index fsyncs every put. Only an OS crash or power
// loss can drop the memo appends not yet synced, and a lost memo entry
// costs one re-query, never a wrong answer.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Record framing, the unit of both the memo log and the circuit index:
//
//	u32le  payload length n
//	u32le  CRC32C over the 4 length bytes followed by the payload
//	n bytes payload
//
// The checksum covers the length field so a flipped length byte cannot
// open a mis-framed window that happens to checksum clean: any corruption
// of the header or payload fails the CRC and recovery stops there.

const recordHeaderSize = 8

// maxRecordSize bounds a single record. A length field above this is
// treated as corruption rather than an allocation request — a torn or
// rotted header must not make recovery attempt a 4 GiB read.
const maxRecordSize = 64 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorruptRecord marks a record that failed framing or checksum
// validation.
var ErrCorruptRecord = errors.New("store: corrupt record")

// appendRecord appends one framed record to buf and returns the extended
// slice.
func appendRecord(buf, payload []byte) []byte {
	var hdr [recordHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	crc := crc32.Update(0, crcTable, hdr[0:4])
	crc = crc32.Update(crc, crcTable, payload)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// recordScanner walks framed records in a byte stream, tracking the offset
// of the end of the last valid record — the recovered-prefix length.
type recordScanner struct {
	data []byte
	off  int
}

// next returns the next payload. io.EOF means a clean end exactly at a
// record boundary; ErrCorruptRecord (possibly wrapped) means the bytes at
// the current offset are not a valid record.
func (s *recordScanner) next() ([]byte, error) {
	rest := s.data[s.off:]
	if len(rest) == 0 {
		return nil, io.EOF
	}
	if len(rest) < recordHeaderSize {
		return nil, fmt.Errorf("%w: %d-byte partial header at offset %d", ErrCorruptRecord, len(rest), s.off)
	}
	n := binary.LittleEndian.Uint32(rest[0:4])
	if n > maxRecordSize {
		return nil, fmt.Errorf("%w: implausible length %d at offset %d", ErrCorruptRecord, n, s.off)
	}
	if len(rest) < recordHeaderSize+int(n) {
		return nil, fmt.Errorf("%w: truncated payload (%d of %d bytes) at offset %d",
			ErrCorruptRecord, len(rest)-recordHeaderSize, n, s.off)
	}
	want := binary.LittleEndian.Uint32(rest[4:8])
	payload := rest[recordHeaderSize : recordHeaderSize+int(n)]
	crc := crc32.Update(0, crcTable, rest[0:4])
	crc = crc32.Update(crc, crcTable, payload)
	if crc != want {
		return nil, fmt.Errorf("%w: checksum mismatch at offset %d", ErrCorruptRecord, s.off)
	}
	s.off += recordHeaderSize + int(n)
	return payload, nil
}

// scanTail classifies the invalid region after a recovered prefix. A torn
// tail — the expected wreckage of a crash mid-append — contains no valid
// record after the tear. If re-synchronizing at any later offset finds one,
// something overwrote the middle of the file and the loss is not just the
// in-flight append; that must be reported, never silently absorbed.
func scanTail(dropped []byte) (midFileCorruption bool) {
	for start := 1; start+recordHeaderSize <= len(dropped); start++ {
		s := recordScanner{data: dropped[start:]}
		if _, err := s.next(); err == nil {
			return true
		}
	}
	return false
}
