package store

import (
	"encoding/binary"
	"fmt"
)

// Record opcodes. The WAL is a log of these logical mutations; replaying
// them over the deterministic bootstrap state reconstructs the site.
const (
	opPlace    uint8 = 1  // obj, arg=version: hold a replica at that version
	opDrop     uint8 = 2  // obj: stop holding (version forgotten)
	opSetVer   uint8 = 3  // obj, arg=version: absolute version stamp
	opQueue    uint8 = 6  // obj, arg=±1: queue / dequeue a pending write
	opNTC      uint8 = 7  // arg=delta: account transfer cost
	opReplicas uint8 = 9  // obj, sites: the replica set R_k
	opPrimary  uint8 = 11 // obj, arg=site: current primary after a promotion
)

// retiredOps names the opcodes older logs also carry: the primary's stale
// marks (4, 5), a site's nearest-replica record (8) and the primary's
// replicator list (10). Their numbers stay reserved, and replay refuses
// them by name (Store.applyPayload) instead of reading them as corruption.
var retiredOps = map[uint8]string{
	4:  "stale mark (versions are the one staleness record)",
	5:  "stale-mark clear (versions are the one staleness record)",
	8:  "nearest-replica record (the replica set is the one routing record)",
	10: "replicator list (the replica set is the one routing record)",
}

// record is one logical mutation. Versions and cost deltas ride in arg;
// replica sets ride in sites.
type record struct {
	op    uint8
	obj   int32
	arg   int64
	sites []int32
}

// recordFixedLen is a record's size before its sites.
const recordFixedLen = 17

// appendTo appends the record's layout to dst: op(1) | obj(4) | arg(8) |
// nsites(4) | sites(4·n), little-endian throughout. The layout is
// fixed-width so the same mutation always produces the same bytes
// (byte-identical logs for identical histories).
func (r record) appendTo(dst []byte) []byte {
	dst = append(dst, r.op)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.obj))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.arg))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.sites)))
	for _, s := range r.sites {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(s))
	}
	return dst
}

// recordLen returns the length of the record that b starts with, read
// from its site count, or -1 when b is too short to hold one. Records are
// self-delimiting, so a snapshot is a plain run of them (Store.loadSnapshot).
func recordLen(b []byte) int {
	if len(b) < recordFixedLen {
		return -1
	}
	n := binary.LittleEndian.Uint32(b[13:17])
	if n > maxRecordBytes/4 {
		return -1
	}
	return recordFixedLen + 4*int(n)
}

// decodeRecord rejects anything that is not exactly one well-formed
// record; replay treats a rejection as corruption and stops there.
func decodeRecord(b []byte) (record, error) {
	if n := recordLen(b); n != len(b) {
		return record{}, fmt.Errorf("store: %d bytes are not one record (length %d)", len(b), n)
	}
	r := record{
		op:  b[0],
		obj: int32(binary.LittleEndian.Uint32(b[1:5])),
		arg: int64(binary.LittleEndian.Uint64(b[5:13])),
	}
	if r.op < opPlace || r.op > opPrimary {
		return record{}, fmt.Errorf("store: unknown opcode %d", r.op)
	}
	if n := (len(b) - recordFixedLen) / 4; n > 0 {
		r.sites = make([]int32, n)
		for i := range r.sites {
			r.sites[i] = int32(binary.LittleEndian.Uint32(b[recordFixedLen+4*i:]))
		}
	}
	return r, nil
}
