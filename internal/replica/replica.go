// Package replica implements WAL-shipping replication for the sharded NN-cell
// index (shard.Sharded, one WAL per shard): a primary Source that serves its
// snapshot and per-shard WAL segments over HTTP, and a Follower that
// bootstraps from the snapshot and replays each shipped log into the
// matching shard through the idempotent ApplyLogRecord path.
//
// The protocol is exact, not approximate. The index is a deterministic
// function of its acknowledged mutation history: a snapshot plus the
// replayed suffix of per-shard logs reconstructs bit-identical point
// tables, and the NN-cell structure is recomputed from those points, so a
// caught-up follower returns byte-for-byte the answers the primary would
// (the same piecewise-constant-answer argument behind the exact result
// cache). Three properties carry the correctness:
//
//  1. Consistent cut. The snapshot endpoint rotates every log BEFORE
//     serving the snapshot body. Mutations hold the index write lock
//     across WAL-append+commit, so every record in a segment below the
//     rotation cut is inside the snapshot, and every record not in the
//     snapshot lives in a segment at or above the cut. Per-shard logs need
//     no cross-log ordering: routing is deterministic, a point's whole
//     history lives in one shard's log.
//  2. Durable prefix only. Only fsynced bytes of the active segment are
//     shipped (wal.SegmentsInfo). A follower therefore never applies a
//     record the primary could lose in a crash — replicas cannot run ahead
//     of the acknowledged history.
//  3. Idempotent, id-verified replay. Records overlapping the snapshot
//     replay as stale duplicates; a record that contradicts the snapshot
//     (wrong log, gap) is an error that triggers re-bootstrap rather than
//     silent divergence.
package replica

import (
	"crypto/rand"
	"encoding/hex"
)

// newBootID returns a random identifier for one primary process lifetime.
// Followers compare it on every response: any change means the primary
// restarted (its WAL sequence space reset), so positions are meaningless
// and the follower re-bootstraps.
func newBootID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on the supported platforms; a zero id
		// still forces re-bootstrap against any differently-seeded peer.
		return "boot-0000000000000000"
	}
	return "boot-" + hex.EncodeToString(b[:])
}
