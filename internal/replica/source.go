package replica

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path"
	"strconv"
	"strings"
	"time"

	"repro/internal/iofault"
	"repro/internal/shard"
	"repro/internal/wal"
)

// Replication wire protocol (all GET, mounted under /v1/repl/):
//
//	snapshot            → headers Boot/Logs/Cuts/Appends, body = Save stream.
//	                      The logs are rotated FIRST, so Cuts[i] is a seal:
//	                      records missing from the body are exactly those in
//	                      segments ≥ Cuts[i] of log i.
//	segments?log=N      → JSON wal.ShipInfo for log N (manifest).
//	stream?log=N&seq=S&off=O&wait=MS
//	                    → raw segment bytes from offset O, capped at the
//	                      shippable size (durable prefix for the active
//	                      segment). Long-polls up to MS milliseconds when no
//	                      new bytes are available, then answers 204. Headers
//	                      report sealed/size/appends so the follower can
//	                      advance segments and compute lag. 410 Gone when
//	                      the segment was compacted away (follower must
//	                      re-bootstrap); 416 when O is past the shippable
//	                      size (positions from a dead lifetime).
//
// Every response carries X-Nncell-Repl-Boot; a follower that sees the boot
// id change discards all positions and re-bootstraps.
const (
	headerBoot    = "X-Nncell-Repl-Boot"
	headerLogs    = "X-Nncell-Repl-Logs"
	headerCuts    = "X-Nncell-Repl-Cuts"
	headerAppends = "X-Nncell-Repl-Appends"
	headerSealed  = "X-Nncell-Repl-Sealed"
	headerSize    = "X-Nncell-Repl-Size"
)

// streamChunkBytes caps one stream response body.
const streamChunkBytes = 1 << 20

// maxStreamWait caps the long-poll duration a client may request.
const maxStreamWait = 30 * time.Second

// streamPollInterval is the cadence at which a long-polling stream request
// re-checks the log for new durable bytes.
const streamPollInterval = 15 * time.Millisecond

// Source serves a primary's replication feed as an http.Handler. Log i is
// shard i's WAL.
type Source struct {
	s      *shard.Sharded
	fs     iofault.FS
	bootID string
}

// NewSource wraps the primary index. fs must be the filesystem its WALs live
// on (nil = the real one); every shard must have a WAL attached.
func NewSource(s *shard.Sharded, fs iofault.FS) (*Source, error) {
	if fs == nil {
		fs = iofault.OS{}
	}
	for i := 0; i < s.NumShards(); i++ {
		if s.Shard(i).WAL() == nil {
			return nil, fmt.Errorf("replica: shard %d has no WAL attached; replication requires -wal-dir", i)
		}
	}
	return &Source{s: s, fs: fs, bootID: newBootID()}, nil
}

// BootID returns the primary lifetime identifier stamped on every response.
func (s *Source) BootID() string { return s.bootID }

// ServeHTTP dispatches on the last path element, so the Source can be
// mounted under any prefix (the server uses /v1/repl/).
func (s *Source) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set(headerBoot, s.bootID)
	if r.Method != http.MethodGet {
		http.Error(w, "replication endpoints are GET-only", http.StatusMethodNotAllowed)
		return
	}
	switch path.Base(r.URL.Path) {
	case "snapshot":
		s.serveSnapshot(w, r)
	case "segments":
		s.serveSegments(w, r)
	case "stream":
		s.serveStream(w, r)
	default:
		http.NotFound(w, r)
	}
}

// serveSnapshot rotates all logs (establishing the cut), then streams the
// snapshot. The rotate MUST come first: a record appended after the rotate
// may or may not be in the body, but it is certainly in a segment ≥ cut,
// where the follower's idempotent replay makes the overlap harmless. The
// reverse order would lose records appended between Save and Rotate.
func (s *Source) serveSnapshot(w http.ResponseWriter, r *http.Request) {
	cuts, err := s.s.RotateWAL()
	if err != nil {
		http.Error(w, fmt.Sprintf("rotating for snapshot cut: %v", err), http.StatusServiceUnavailable)
		return
	}
	appends := make([]uint64, len(cuts))
	for i := range appends {
		info, err := s.s.Shard(i).WAL().SegmentsInfo()
		if err != nil {
			http.Error(w, fmt.Sprintf("manifest of log %d: %v", i, err), http.StatusServiceUnavailable)
			return
		}
		appends[i] = info.DurableAppends
	}
	w.Header().Set(headerLogs, strconv.Itoa(len(cuts)))
	w.Header().Set(headerCuts, joinUints(cuts))
	w.Header().Set(headerAppends, joinUints(appends))
	w.Header().Set("Content-Type", "application/octet-stream")
	// A Save failure past this point can only sever the connection; the
	// follower sees a short/invalid stream and retries bootstrap.
	if err := s.s.Save(w); err != nil {
		return
	}
}

func (s *Source) serveSegments(w http.ResponseWriter, r *http.Request) {
	l, _, ok := s.log(w, r)
	if !ok {
		return
	}
	info, err := l.SegmentsInfo()
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(info)
}

func (s *Source) serveStream(w http.ResponseWriter, r *http.Request) {
	l, _, ok := s.log(w, r)
	if !ok {
		return
	}
	seq, err := strconv.ParseUint(r.URL.Query().Get("seq"), 10, 64)
	if err != nil || seq == 0 {
		http.Error(w, "bad seq", http.StatusBadRequest)
		return
	}
	off, err := strconv.ParseInt(r.URL.Query().Get("off"), 10, 64)
	if err != nil || off < 0 {
		http.Error(w, "bad off", http.StatusBadRequest)
		return
	}
	var wait time.Duration
	if ws := r.URL.Query().Get("wait"); ws != "" {
		ms, err := strconv.Atoi(ws)
		if err != nil || ms < 0 {
			http.Error(w, "bad wait", http.StatusBadRequest)
			return
		}
		wait = time.Duration(ms) * time.Millisecond
		if wait > maxStreamWait {
			wait = maxStreamWait
		}
	}
	deadline := time.Now().Add(wait)
	for {
		info, err := l.SegmentsInfo()
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		var seg wal.SegmentInfo
		found := false
		for _, si := range info.Segments {
			if si.Seq == seq {
				seg, found = si, true
				break
			}
		}
		if !found {
			// Compacted away (or from another lifetime): the follower
			// cannot resume from here and must re-bootstrap.
			http.Error(w, fmt.Sprintf("segment %d is gone", seq), http.StatusGone)
			return
		}
		if off > seg.Size {
			http.Error(w, fmt.Sprintf("offset %d past shippable size %d", off, seg.Size),
				http.StatusRequestedRangeNotSatisfiable)
			return
		}
		w.Header().Set(headerSealed, strconv.FormatBool(seg.Sealed))
		w.Header().Set(headerSize, strconv.FormatInt(seg.Size, 10))
		w.Header().Set(headerAppends, strconv.FormatUint(info.DurableAppends, 10))
		if off < seg.Size {
			s.sendSegmentBytes(w, l.Dir(), seq, off, seg.Size-off)
			return
		}
		// Caught up on this segment. A sealed segment will never grow and
		// an expired wait has nothing to offer — both answer 204 and let
		// the follower decide (advance vs. poll again).
		if seg.Sealed || !time.Now().Add(streamPollInterval).Before(deadline) {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-time.After(streamPollInterval):
		}
	}
}

// sendSegmentBytes streams up to streamChunkBytes from the segment file.
// A file shrinking mid-read (an injected torn transfer) yields a short
// body, which the follower's whole-record cursor absorbs by construction.
func (s *Source) sendSegmentBytes(w http.ResponseWriter, dir string, seq uint64, off, avail int64) {
	n := avail
	if n > streamChunkBytes {
		n = streamChunkBytes
	}
	f, err := s.fs.OpenFile(wal.SegmentPath(dir, seq), os.O_RDONLY, 0)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			http.Error(w, "segment vanished", http.StatusGone)
		} else {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	defer f.Close()
	if _, err := io.CopyN(io.Discard, f, off); err != nil {
		http.Error(w, fmt.Sprintf("seeking to %d: %v", off, err), http.StatusInternalServerError)
		return
	}
	buf := make([]byte, n)
	m, err := io.ReadFull(f, buf)
	if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(m))
	w.Write(buf[:m])
}

// log resolves the ?log= parameter; on failure it has already answered.
func (s *Source) log(w http.ResponseWriter, r *http.Request) (*wal.Log, int, bool) {
	i, err := strconv.Atoi(r.URL.Query().Get("log"))
	if err != nil || i < 0 || i >= s.s.NumShards() {
		http.Error(w, fmt.Sprintf("log must be in [0, %d)", s.s.NumShards()), http.StatusBadRequest)
		return nil, 0, false
	}
	return s.s.Shard(i).WAL(), i, true
}

func joinUints(xs []uint64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatUint(x, 10)
	}
	return strings.Join(parts, ",")
}

func splitUints(s string) ([]uint64, error) {
	if s == "" {
		return nil, errors.New("empty list")
	}
	parts := strings.Split(s, ",")
	out := make([]uint64, len(parts))
	for i, p := range parts {
		x, err := strconv.ParseUint(p, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("element %d: %w", i, err)
		}
		out[i] = x
	}
	return out, nil
}
