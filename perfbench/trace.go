package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/nncell"
	"repro/internal/shard"
	"repro/internal/vec"
)

// Span names. A request's spans share its request id; the client span is
// the root and its id is the request id.
const (
	spanClientNN = iota
	spanClientKNN
	spanClientInsert
	spanClientDelete
	spanClientEncode
	spanClientDecode
	spanHandler
	spanShardNN
	spanShardKNN
	spanShardInsert
	spanShardDelete
	spanInvalidate
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"client.nn", "client.knn", "client.insert", "client.delete",
	"client.encode", "client.decode", "server.handler",
	"shard.nn", "shard.knn", "shard.insert", "shard.delete",
	"rescache.invalidate",
}

type span struct {
	id, parent, rid uint64
	// key names the request's subject (its query point, or the id it
	// deletes) so spans recorded inside the server can be tied to their
	// request afterwards.
	key        uint64
	name       uint8
	start, end int64 // ns since the tracer's base
}

func (s span) dur() int64 { return s.end - s.start }

// pointKey and idKey derive a request's key: FNV-1a over the float64 bits
// of its point, or over its id.
func pointKey(p vec.Point) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range p {
		h = (h ^ math.Float64bits(v)) * 1099511628211
	}
	return h
}

func idKey(id int) uint64 { return (uint64(id) ^ 0x9e3779b97f4a7c15) * 1099511628211 }

// tracer records spans in memory; they are written out when the run ends.
// The server calls the index without the request at hand, so a span around
// an index call carries only the request's key; link resolves its parent
// afterwards to the handler span of the same key that contains it.
type tracer struct {
	base     time.Time
	ids      atomic.Uint64
	mu       sync.Mutex
	spans    []span
	rejected atomic.Int64
	// writeKey is the key of the index write in progress, for the cache
	// invalidation hook the index calls from inside the write. The
	// benchmark sends all writes from one connection, so they never overlap.
	writeKey atomic.Uint64
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64    { return int64(time.Since(t.base)) }
func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed records f as a span of the given name and key, parent unresolved.
func (t *tracer) timed(name uint8, key uint64, f func()) {
	s := span{id: t.newID(), key: key, name: name, start: t.now()}
	f()
	s.end = t.now()
	t.add(s)
}

// handler times Server.Handler().ServeHTTP as the server.handler span, the
// child of the client span named by the X-Request-Id header.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid, _ := strconv.ParseUint(r.Header.Get("X-Request-Id"), 10, 64)
		key, _ := strconv.ParseUint(r.Header.Get("X-Request-Key"), 10, 64)
		s := span{id: t.newID(), parent: rid, rid: rid, key: key, name: spanHandler, start: t.now()}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(sw, r)
		s.end = t.now()
		t.add(s)
		if sw.code == http.StatusServiceUnavailable {
			t.rejected.Add(1)
		}
	})
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// tracedIndex is the index the traced server is given: the sharded index
// with each request-path call into it wrapped in a span.
type tracedIndex struct {
	*shard.Sharded
	t *tracer
}

func (x *tracedIndex) NearestNeighbor(q vec.Point) (nb nncell.Neighbor, err error) {
	x.t.timed(spanShardNN, pointKey(q), func() { nb, err = x.Sharded.NearestNeighbor(q) })
	return nb, err
}

func (x *tracedIndex) KNearest(q vec.Point, k int) (nbs []nncell.Neighbor, err error) {
	x.t.timed(spanShardKNN, pointKey(q), func() { nbs, err = x.Sharded.KNearest(q, k) })
	return nbs, err
}

func (x *tracedIndex) Insert(p vec.Point) (id int, err error) {
	key := pointKey(p)
	x.t.writeKey.Store(key)
	x.t.timed(spanShardInsert, key, func() { id, err = x.Sharded.Insert(p) })
	return id, err
}

func (x *tracedIndex) Delete(id int) (err error) {
	key := idKey(id)
	x.t.writeKey.Store(key)
	x.t.timed(spanShardDelete, key, func() { err = x.Sharded.Delete(id) })
	return err
}

// invalidate wraps the cache invalidation hook in a span under the write
// that triggered it.
func (t *tracer) invalidate(h func([]int, []vec.Point)) func([]int, []vec.Point) {
	return func(cells []int, added []vec.Point) {
		t.timed(spanInvalidate, t.writeKey.Load(), func() { h(cells, added) })
	}
}

// parentKinds are the span kinds a server-side span nests in.
func parentKinds(name uint8) []uint8 {
	switch name {
	case spanShardNN, spanShardKNN, spanShardInsert, spanShardDelete:
		return []uint8{spanHandler}
	case spanInvalidate:
		return []uint8{spanShardInsert, spanShardDelete}
	}
	return nil
}

// link resolves the parent and request id of every server-side span: the
// span of a parent kind with the same key whose interval contains it. When
// two such spans overlap (the same query in flight on both connections)
// either is a valid parent. Spans left without one keep parent 0 and fail
// checkNesting.
func link(spans []span) {
	type slot struct {
		name uint8
		key  uint64
	}
	byKey := make(map[slot][]int)
	for i, s := range spans {
		if s.name == spanHandler || s.name == spanShardInsert || s.name == spanShardDelete {
			k := slot{s.name, s.key}
			byKey[k] = append(byKey[k], i)
		}
	}
	for _, idx := range byKey {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].start < spans[idx[b]].start })
	}
	// Shard spans first, so the invalidation spans below them inherit a
	// resolved request id.
	for _, pass := range []bool{false, true} {
		for i := range spans {
			s := &spans[i]
			if (s.name == spanInvalidate) != pass {
				continue
			}
			for _, kind := range parentKinds(s.name) {
				idx := byKey[slot{kind, s.key}]
				// The last candidate starting no later than s, then earlier ones.
				j := sort.Search(len(idx), func(j int) bool { return spans[idx[j]].start > s.start }) - 1
				for ; j >= 0 && s.parent == 0; j-- {
					if p := spans[idx[j]]; p.end >= s.end {
						s.parent, s.rid = p.id, p.rid
					}
				}
			}
		}
	}
}

// reset drops the spans recorded so far.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
	t.rejected.Store(0)
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans stores spans as gzip-compressed CSV.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "id,parent,rid,name,start_ns,end_ns")
	for _, s := range spans {
		fmt.Fprintf(bw, "%d,%d,%d,%s,%d,%d\n", s.id, s.parent, s.rid, spanNames[s.name], s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// requestTrace is one request's spans, grouped for the per-layer figures.
type requestTrace struct {
	root     span
	handler  span
	hasRoot  bool
	hasHdl   bool
	children []span // every span below the handler
	client   []span // encode/decode spans under the root
}

func groupByRequest(spans []span) map[uint64]*requestTrace {
	out := make(map[uint64]*requestTrace)
	get := func(rid uint64) *requestTrace {
		r := out[rid]
		if r == nil {
			r = &requestTrace{}
			out[rid] = r
		}
		return r
	}
	for _, s := range spans {
		r := get(s.rid)
		switch {
		case s.name <= spanClientDelete:
			r.root, r.hasRoot = s, true
		case s.name == spanClientEncode || s.name == spanClientDecode:
			r.client = append(r.client, s)
		case s.name == spanHandler:
			r.handler, r.hasHdl = s, true
		default:
			r.children = append(r.children, s)
		}
	}
	return out
}
