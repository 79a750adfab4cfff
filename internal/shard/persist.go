package shard

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/nncell"
	"repro/internal/pager"
	"repro/internal/vec"
)

// Magic identifies the current sharded snapshot stream. MagicV1 is the
// previous sharded format, which Load still accepts (v1 predates pluggable
// routing, so a v1 stream always loads hash-routed), as it accepts a bare
// single-index stream (nncell.Magic), which loads as one hash-routed shard.
const (
	Magic   = "NNSHRDv2"
	MagicV1 = "NNSHRDv1"
)

// maxShardCount bounds the header-declared shard count; it exists to reject
// absurd inputs early, and Load never trusts it for allocation beyond the
// slice headers.
const maxShardCount = 1 << 16

// maxShardDim bounds the header-declared dimensionality (the per-shard blobs
// re-validate it; this only caps the header-driven bounds allocation).
const maxShardDim = 1 << 12

// maxShardBlob bounds one shard's declared blob length (the per-shard v2
// format's own caps bound the real payload far below this).
const maxShardBlob = 1 << 36

// The sharded on-disk format wraps the single-index v2 format:
//
//	magic   [8]byte  "NNSHRDv2"
//	shards  uint32   (partition width S)
//	dim     uint16
//	lo      float64 × dim   (data-space lower corner)
//	hi      float64 × dim   (data-space upper corner)
//	route   uint8    (RouteKind: 0 hash, 1 grid)
//	if grid: m uint8, then per split: dim uint16, count uint32
//	per shard: present uint8; if present: blobLen uint64, then blobLen bytes
//	           of one NNCELLv2 stream (self-checksummed)
//
// The header records everything Load needs to rebuild the router
// deterministically (grid tile edges are a pure function of bounds × dims ×
// counts), so routed placement is identical across save/load. Recording dim
// and bounds in the header — v1 recovered them from the first non-empty
// shard — also lets an all-empty sharded index round-trip, which the empty
// bootstrap path (NewEmpty + periodic snapshots before any insert) needs.
//
// Empty shards (no live points) are written as absent — the per-shard v2
// format cannot represent an empty index — and are recreated empty on load.
// Integrity is per shard: every present blob carries the v2 CRC, and Load
// additionally revalidates the routing invariant over all loaded points, so
// a stream whose blobs were shuffled between shard slots (or whose routing
// header was altered) is rejected.
//
// Save snapshots each shard under that shard's read lock; concurrent writers
// to *other* shards proceed, so the file is a point-in-time image per shard,
// not across shards. That is the same guarantee the serving layer's periodic
// snapshot had for a single index (writers wait, readers proceed), widened
// shard-wise; a cross-shard-atomic snapshot would require pausing all
// writers for the full dump, which the serving path deliberately avoids.
func (s *Sharded) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	le := binary.LittleEndian
	if _, err := bw.WriteString(Magic); err != nil {
		return fmt.Errorf("shard: save: %w", err)
	}
	if err := binary.Write(bw, le, uint32(len(s.shards))); err != nil {
		return fmt.Errorf("shard: save: %w", err)
	}
	if err := binary.Write(bw, le, uint16(s.dim)); err != nil {
		return fmt.Errorf("shard: save: %w", err)
	}
	for _, v := range s.bounds.Lo {
		if err := binary.Write(bw, le, v); err != nil {
			return fmt.Errorf("shard: save: %w", err)
		}
	}
	for _, v := range s.bounds.Hi {
		if err := binary.Write(bw, le, v); err != nil {
			return fmt.Errorf("shard: save: %w", err)
		}
	}
	switch r := s.router.(type) {
	case *hashRouter:
		if err := binary.Write(bw, le, uint8(RouteHash)); err != nil {
			return fmt.Errorf("shard: save: %w", err)
		}
	case *gridRouter:
		if err := binary.Write(bw, le, uint8(RouteGrid)); err != nil {
			return fmt.Errorf("shard: save: %w", err)
		}
		if err := binary.Write(bw, le, uint8(len(r.dims))); err != nil {
			return fmt.Errorf("shard: save: %w", err)
		}
		for i, dim := range r.dims {
			if err := binary.Write(bw, le, uint16(dim)); err != nil {
				return fmt.Errorf("shard: save: %w", err)
			}
			if err := binary.Write(bw, le, uint32(r.counts[i])); err != nil {
				return fmt.Errorf("shard: save: %w", err)
			}
		}
	default:
		return fmt.Errorf("shard: save: unpersistable router %T", r)
	}
	var buf bytes.Buffer
	for i, ix := range s.shards {
		buf.Reset()
		// A shard with no live points is absent in the stream. Note the
		// Len/Save pair is not atomic against a concurrent insert into this
		// shard; the snapshot is simply taken per shard at slightly
		// different instants, as documented above.
		if ix.Len() == 0 {
			if err := binary.Write(bw, le, uint8(0)); err != nil {
				return fmt.Errorf("shard: save: %w", err)
			}
			continue
		}
		if err := ix.Save(&buf); err != nil {
			return fmt.Errorf("shard: save shard %d: %w", i, err)
		}
		if err := binary.Write(bw, le, uint8(1)); err != nil {
			return fmt.Errorf("shard: save: %w", err)
		}
		if err := binary.Write(bw, le, uint64(buf.Len())); err != nil {
			return fmt.Errorf("shard: save: %w", err)
		}
		if _, err := bw.Write(buf.Bytes()); err != nil {
			return fmt.Errorf("shard: save: %w", err)
		}
	}
	return bw.Flush()
}

// Load reconstructs a sharded index from a stream written by Save (current
// or v1 format), or from a bare single-index stream written by
// nncell.Index.Save. Each shard gets a fresh pager configured by opts.Pager;
// opts.Shards, opts.Route and opts.Grid are ignored — the stream records the
// partition width and routing policy, which the global-id mapping and point
// placement depend on. Every present shard blob is fully validated by the
// per-shard v2 loader; Load additionally checks that all shards agree with
// the header on dimensionality and data space, and that every point routes
// to the shard that stores it.
func Load(r io.Reader, opts Options) (*Sharded, error) {
	br := bufio.NewReader(r)
	le := binary.LittleEndian

	if magic, err := br.Peek(len(nncell.Magic)); err == nil && string(magic) == nncell.Magic {
		return loadSingle(br, opts)
	}
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("shard: load: %w", err)
	}
	switch string(magic) {
	case Magic:
	case MagicV1:
		return loadV1(br, opts)
	default:
		return nil, fmt.Errorf("shard: load: bad magic %q", magic)
	}

	var count uint32
	if err := binary.Read(br, le, &count); err != nil {
		return nil, fmt.Errorf("shard: load: %w", err)
	}
	if count == 0 || count > maxShardCount {
		return nil, fmt.Errorf("shard: load: implausible shard count %d", count)
	}
	var dim uint16
	if err := binary.Read(br, le, &dim); err != nil {
		return nil, fmt.Errorf("shard: load: %w", err)
	}
	if dim == 0 || dim > maxShardDim {
		return nil, fmt.Errorf("shard: load: implausible dimensionality %d", dim)
	}
	bounds := vec.Rect{Lo: make(vec.Point, dim), Hi: make(vec.Point, dim)}
	for i := range bounds.Lo {
		if err := binary.Read(br, le, &bounds.Lo[i]); err != nil {
			return nil, fmt.Errorf("shard: load: %w", err)
		}
	}
	for i := range bounds.Hi {
		if err := binary.Read(br, le, &bounds.Hi[i]); err != nil {
			return nil, fmt.Errorf("shard: load: %w", err)
		}
	}
	for i := range bounds.Lo {
		lo, hi := bounds.Lo[i], bounds.Hi[i]
		// The negated comparison also rejects NaN corners.
		if !(lo < hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
			return nil, fmt.Errorf("shard: load: corrupt data space [%v, %v] in dim %d", lo, hi, i)
		}
	}
	var kind uint8
	if err := binary.Read(br, le, &kind); err != nil {
		return nil, fmt.Errorf("shard: load: %w", err)
	}
	var router Router
	switch RouteKind(kind) {
	case RouteHash:
		router = &hashRouter{shards: int(count)}
	case RouteGrid:
		var m uint8
		if err := binary.Read(br, le, &m); err != nil {
			return nil, fmt.Errorf("shard: load: %w", err)
		}
		if int(m) > maxGridDims {
			return nil, fmt.Errorf("shard: load: grid splits %d dims, max %d", m, maxGridDims)
		}
		dims := make([]int, m)
		counts := make([]int, m)
		for i := range dims {
			var sd uint16
			var sc uint32
			if err := binary.Read(br, le, &sd); err != nil {
				return nil, fmt.Errorf("shard: load: %w", err)
			}
			if err := binary.Read(br, le, &sc); err != nil {
				return nil, fmt.Errorf("shard: load: %w", err)
			}
			dims[i], counts[i] = int(sd), int(sc)
		}
		g, err := newGridRouter(int(dim), bounds, dims, counts)
		if err != nil {
			return nil, fmt.Errorf("shard: load: %w", err)
		}
		if g.Shards() != int(count) {
			return nil, fmt.Errorf("shard: load: grid tile product %d disagrees with shard count %d", g.Shards(), count)
		}
		router = g
	default:
		return nil, fmt.Errorf("shard: load: unknown routing policy %d", kind)
	}

	sh := &Sharded{
		dim:    int(dim),
		bounds: bounds,
		router: router,
		shards: make([]*nncell.Index, count),
		pagers: make([]*pager.Pager, count),
	}
	if err := loadShardBlobs(br, sh, opts); err != nil {
		return nil, err
	}

	// Cross-shard validation: all present shards must describe the header's
	// space. (All-empty is legal in v2 — the header carries the geometry.)
	for i, ix := range sh.shards {
		if ix == nil {
			continue
		}
		if ix.Dim() != sh.dim {
			return nil, fmt.Errorf("shard: load: shard %d has dim %d, header declares %d", i, ix.Dim(), sh.dim)
		}
		if !ix.Bounds().Equal(sh.bounds) {
			return nil, fmt.Errorf("shard: load: shard %d data space %v disagrees with %v", i, ix.Bounds(), sh.bounds)
		}
	}
	if err := fillEmptyShards(sh, opts); err != nil {
		return nil, err
	}
	if err := checkRoutingInvariant(sh); err != nil {
		return nil, err
	}
	return sh, nil
}

// loadSingle loads a bare single-index stream as one hash-routed shard.
// With S=1 the global id of every point equals its local id, so the ids a
// single index handed out stay valid.
func loadSingle(br *bufio.Reader, opts Options) (*Sharded, error) {
	pg := pager.New(opts.Pager)
	ix, err := nncell.Load(br, pg)
	if err != nil {
		return nil, fmt.Errorf("shard: load: %w", err)
	}
	return &Sharded{
		dim:    ix.Dim(),
		bounds: ix.Bounds(),
		router: &hashRouter{shards: 1},
		shards: []*nncell.Index{ix},
		pagers: []*pager.Pager{pg},
	}, nil
}

// loadV1 reads the remainder of a v1 stream (magic already consumed). v1
// carries no routing header — placement was always FNV hash — and no
// geometry, so an all-absent v1 stream is unloadable (ErrEmpty), exactly as
// before.
func loadV1(br *bufio.Reader, opts Options) (*Sharded, error) {
	le := binary.LittleEndian
	var count uint32
	if err := binary.Read(br, le, &count); err != nil {
		return nil, fmt.Errorf("shard: load: %w", err)
	}
	if count == 0 || count > maxShardCount {
		return nil, fmt.Errorf("shard: load: implausible shard count %d", count)
	}
	sh := &Sharded{
		router: &hashRouter{shards: int(count)},
		shards: make([]*nncell.Index, count),
		pagers: make([]*pager.Pager, count),
	}
	if err := loadShardBlobs(br, sh, opts); err != nil {
		return nil, err
	}

	// Cross-shard validation: some shard must be non-empty (v1 has no other
	// source for dim/bounds), and all present shards must agree.
	for i, ix := range sh.shards {
		if ix == nil {
			continue
		}
		if sh.dim == 0 {
			sh.dim = ix.Dim()
			sh.bounds = ix.Bounds()
		}
		if ix.Dim() != sh.dim {
			return nil, fmt.Errorf("shard: load: shard %d has dim %d, shard stream established %d", i, ix.Dim(), sh.dim)
		}
		if !ix.Bounds().Equal(sh.bounds) {
			return nil, fmt.Errorf("shard: load: shard %d data space %v disagrees with %v", i, ix.Bounds(), sh.bounds)
		}
	}
	if sh.dim == 0 {
		return nil, nncell.ErrEmpty
	}
	if err := fillEmptyShards(sh, opts); err != nil {
		return nil, err
	}
	if err := checkRoutingInvariant(sh); err != nil {
		return nil, err
	}
	return sh, nil
}

// loadShardBlobs reads the per-shard present/blob section (shared by every
// stream version) into sh.shards/sh.pagers, leaving absent slots nil, and
// enforces that the stream ends exactly after the last shard.
func loadShardBlobs(br *bufio.Reader, sh *Sharded, opts Options) error {
	le := binary.LittleEndian
	for i := range sh.shards {
		var present uint8
		if err := binary.Read(br, le, &present); err != nil {
			return fmt.Errorf("shard: load: shard %d: %w", i, err)
		}
		switch present {
		case 0:
			continue // filled in later, once dim/bounds are known
		case 1:
		default:
			return fmt.Errorf("shard: load: corrupt presence flag %d for shard %d", present, i)
		}
		var blobLen uint64
		if err := binary.Read(br, le, &blobLen); err != nil {
			return fmt.Errorf("shard: load: shard %d: %w", i, err)
		}
		if blobLen == 0 || blobLen > maxShardBlob {
			return fmt.Errorf("shard: load: implausible blob length %d for shard %d", blobLen, i)
		}
		pg := pager.New(opts.Pager)
		// The limited reader makes the inner loader's EOF checks line up
		// with the declared blob boundary: a blob that is shorter or longer
		// than declared fails the v2 loader's own trailing-garbage /
		// truncation validation.
		ix, err := nncell.Load(io.LimitReader(br, int64(blobLen)), pg)
		if err != nil {
			return fmt.Errorf("shard: load: shard %d: %w", i, err)
		}
		sh.shards[i] = ix
		sh.pagers[i] = pg
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return fmt.Errorf("shard: load: trailing garbage after last shard")
	}
	return nil
}

// fillEmptyShards replaces absent shard slots with empty indexes over the
// established data space. They take the construction options of the first
// present shard, so a restart builds cells in every shard the way the saved
// index did; only when every shard is absent (the stream records no
// options) do they take the loader's opts.Index.
func fillEmptyShards(sh *Sharded, opts Options) error {
	idxOpts := opts.Index
	for _, ix := range sh.shards {
		if ix != nil {
			idxOpts = ix.Options()
			break
		}
	}
	for i := range sh.shards {
		if sh.shards[i] != nil {
			continue
		}
		pg := pager.New(opts.Pager)
		ix, err := nncell.NewEmpty(sh.dim, sh.bounds, pg, idxOpts)
		if err != nil {
			return fmt.Errorf("shard: load: shard %d: %w", i, err)
		}
		sh.shards[i] = ix
		sh.pagers[i] = pg
	}
	return nil
}

// checkRoutingInvariant verifies that every stored point routes to the shard
// that holds it. A stream whose blobs were rearranged, written with a
// different hash, or whose routing header was altered would break routed
// lookups silently; reject it.
func checkRoutingInvariant(sh *Sharded) error {
	for i, ix := range sh.shards {
		for _, local := range ix.IDs() {
			p, _ := ix.Point(local)
			if want := sh.router.Route(p); want != i {
				return fmt.Errorf("shard: load: shard %d holds point %v that routes to shard %d", i, p, want)
			}
		}
	}
	return nil
}
