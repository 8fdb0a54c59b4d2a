package store

// traceIndex is the in-memory trace table, sharded 256 ways on the
// first hash byte — the same fan-out as the on-disk layout. Each shard
// is either a materialized map or a raw, still-encoded section of the
// index snapshot (fixed 49-byte entries, see index.go). A warm Open
// only slices the snapshot into raw sections; a shard decodes on first
// access, so opening a million-trace corpus costs O(snapshot bytes)
// rather than a million map inserts, and a process that touches a
// handful of shards never pays for the rest. Aggregate count and byte
// totals ride in the snapshot's shard table, keeping Stats O(1) either
// way.
//
// All methods assume the caller holds Store.mu.

import (
	"encoding/binary"
	"encoding/hex"
	"time"
)

// traceShards is the fan-out; shardIndex depends on two hex digits.
const traceShards = 256

// traceEntrySize is the fixed encoded size of one trace entry: 32-byte
// raw hash, 8-byte blob size, 1 flags byte, 8-byte mod-time nanos. The
// flags byte once marked pre-sharding blobs; it is written as 0 and
// ignored on read, so older snapshots still load.
const traceEntrySize = 32 + 8 + 1 + 8

type traceIndex struct {
	shards [traceShards]traceShard
	n      int
	bytes  int64
}

type traceShard struct {
	// raw holds this shard's still-encoded snapshot section; nil once
	// materialized. rawN/rawBytes mirror the shard-table totals so the
	// index answers aggregates without decoding.
	raw      []byte
	rawN     int
	rawBytes int64
	m        map[string]TraceInfo
}

// shardIndex maps a validated lowercase-hex hash to its shard number.
func shardIndex(hash string) int {
	return int(hexNibble(hash[0])<<4 | hexNibble(hash[1]))
}

func hexNibble(c byte) byte {
	if c >= 'a' {
		return c - 'a' + 10
	}
	return c - '0'
}

// shard returns the (materialized) shard owning hash.
func (ix *traceIndex) shard(hash string) *traceShard {
	ts := &ix.shards[shardIndex(hash)]
	ts.materialize()
	return ts
}

// materialize decodes the raw section into the shard map. Entries are
// fixed-width and come from a checksummed snapshot, so decoding cannot
// fail; a short trailing fragment (impossible absent an encoder bug) is
// ignored.
func (ts *traceShard) materialize() {
	if ts.m != nil {
		return
	}
	ts.m = make(map[string]TraceInfo, ts.rawN)
	for raw := ts.raw; len(raw) >= traceEntrySize; raw = raw[traceEntrySize:] {
		hash := hex.EncodeToString(raw[:32])
		ts.m[hash] = TraceInfo{
			Hash:    hash,
			Bytes:   int64(binary.BigEndian.Uint64(raw[32:40])),
			ModTime: time.Unix(0, int64(binary.BigEndian.Uint64(raw[41:49]))),
		}
	}
	ts.raw = nil
}

// encodeEntry appends one fixed-width entry; rawHash is the 32-byte
// decoded hash.
func encodeEntry(dst []byte, rawHash []byte, info TraceInfo) []byte {
	var tmp [traceEntrySize]byte
	copy(tmp[:32], rawHash)
	binary.BigEndian.PutUint64(tmp[32:40], uint64(info.Bytes))
	binary.BigEndian.PutUint64(tmp[41:49], uint64(info.ModTime.UnixNano()))
	return append(dst, tmp[:]...)
}

func (ix *traceIndex) get(hash string) (TraceInfo, bool) {
	info, ok := ix.shard(hash).m[hash]
	return info, ok
}

func (ix *traceIndex) put(info TraceInfo) {
	ts := ix.shard(info.Hash)
	if old, ok := ts.m[info.Hash]; ok {
		ix.bytes += info.Bytes - old.Bytes
	} else {
		ix.n++
		ix.bytes += info.Bytes
	}
	ts.m[info.Hash] = info
}

func (ix *traceIndex) del(hash string) {
	ts := ix.shard(hash)
	if old, ok := ts.m[hash]; ok {
		ix.n--
		ix.bytes -= old.Bytes
		delete(ts.m, hash)
	}
}

func (ix *traceIndex) len() int          { return ix.n }
func (ix *traceIndex) totalBytes() int64 { return ix.bytes }

// each calls fn for every entry, materializing all shards.
func (ix *traceIndex) each(fn func(TraceInfo)) {
	for i := range ix.shards {
		ts := &ix.shards[i]
		ts.materialize()
		for _, info := range ts.m {
			fn(info)
		}
	}
}

// reset empties the index (snapshot decode failure fallback).
func (ix *traceIndex) reset() {
	*ix = traceIndex{}
}
