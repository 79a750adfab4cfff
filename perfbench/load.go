package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/vec"
)

// conn is one client: a single keep-alive HTTP connection to the server.
type conn struct {
	tr   *http.Transport
	hc   *http.Client
	base string
	body []byte
	resp bytes.Buffer
	t    *tracer // nil in untraced phases
	rid  uint64
}

func newConn(addr string, t *tracer) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{tr: tr, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: "http://" + addr, t: t}
}

func (c *conn) close() { c.tr.CloseIdleConnections() }

// reply holds every response shape the benchmark reads.
type reply struct {
	status    int
	ID        int     `json:"id"`
	Dist2     float64 `json:"dist2"`
	Neighbors []struct {
		ID    int     `json:"id"`
		Dist2 float64 `json:"dist2"`
	} `json:"neighbors"`
}

func appendPoint(b []byte, p vec.Point) []byte {
	b = append(b, `{"point":[`...)
	for j, v := range p {
		if j > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, ']')
}

// call sends one request and decodes its answer into out. kind names the
// client span (spanClientNN…spanClientDelete), key the request's subject
// (see pointKey), and encode writes the body.
func (c *conn) call(kind uint8, path string, key uint64, encode func([]byte) []byte, out *reply) error {
	var root, enc, dec span
	if c.t != nil {
		root = span{id: c.t.newID(), name: kind, start: c.t.now()}
		root.rid = root.id
		enc = span{id: c.t.newID(), parent: root.id, rid: root.id, name: spanClientEncode, start: root.start}
		c.rid = root.id
	} else {
		c.rid++
	}
	c.body = encode(c.body[:0])
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(c.body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", strconv.FormatUint(c.rid, 10))
	req.Header.Set("X-Request-Key", strconv.FormatUint(key, 10))
	if c.t != nil {
		enc.end = c.t.now()
	}
	res, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	c.resp.Reset()
	_, err = c.resp.ReadFrom(res.Body)
	res.Body.Close()
	if err != nil {
		return err
	}
	if c.t != nil {
		dec = span{id: c.t.newID(), parent: root.id, rid: root.id, name: spanClientDecode, start: c.t.now()}
	}
	*out = reply{status: res.StatusCode}
	if res.StatusCode == http.StatusOK {
		err = json.Unmarshal(c.resp.Bytes(), out)
	}
	if c.t != nil {
		dec.end = c.t.now()
		root.end = dec.end
		c.t.add(enc)
		c.t.add(dec)
		c.t.add(root)
	}
	return err
}

func (c *conn) nn(p vec.Point, out *reply) error {
	return c.call(spanClientNN, "/v1/nn", pointKey(p), func(b []byte) []byte { return append(appendPoint(b, p), '}') }, out)
}

func (c *conn) knn(p vec.Point, k int, out *reply) error {
	return c.call(spanClientKNN, "/v1/knn", pointKey(p), func(b []byte) []byte {
		b = append(appendPoint(b, p), `,"k":`...)
		return append(strconv.AppendInt(b, int64(k), 10), '}')
	}, out)
}

func (c *conn) insert(p vec.Point, out *reply) error {
	return c.call(spanClientInsert, "/v1/insert", pointKey(p), func(b []byte) []byte { return append(appendPoint(b, p), '}') }, out)
}

func (c *conn) delete(id int, out *reply) error {
	return c.call(spanClientDelete, "/v1/delete", idKey(id), func(b []byte) []byte {
		b = append(b, `{"id":`...)
		return append(strconv.AppendInt(b, int64(id), 10), '}')
	}, out)
}

// tally is what one client saw in one phase. Latencies are in µs.
type tally struct {
	nn, knn, ins, del samples
	// nnAt and readAt are completion times, in seconds since the phase
	// started, of the nn answers (aligned with nn until sumTallies sorts
	// it) and of every read answer.
	nnAt, readAt []float64
	win          windowed
	// lag is how late the generator sent each request: the send time minus
	// the later of its due time and the previous answer on its connection.
	lag               samples
	attempted, failed int
	checks            []check
}

// outcome counts one answer; it reports whether the answer is usable.
func (tl *tally) outcome(err error, rep *reply) bool {
	tl.attempted++
	if err == nil && rep.status == http.StatusOK {
		return true
	}
	tl.failed++
	return false
}

// sumTallies merges the clients' tallies of a phase that ran for dur and
// sorts the latencies.
func sumTallies(ts []*tally, dur time.Duration) *tally {
	out := &tally{}
	for _, t := range ts {
		out.nn = append(out.nn, t.nn...)
		out.nnAt = append(out.nnAt, t.nnAt...)
		out.readAt = append(out.readAt, t.readAt...)
		out.knn = append(out.knn, t.knn...)
		out.ins = append(out.ins, t.ins...)
		out.del = append(out.del, t.del...)
		out.lag = append(out.lag, t.lag...)
		out.attempted += t.attempted
		out.failed += t.failed
		out.checks = append(out.checks, t.checks...)
	}
	out.win = windowStats(out.nn, out.nnAt, out.readAt, dur)
	out.nn = sorted(out.nn)
	out.knn = sorted(out.knn)
	out.ins = sorted(out.ins)
	out.del = sorted(out.del)
	out.lag = sorted(out.lag)
	return out
}

func micros(d time.Duration) float64 { return float64(d) / 1e3 }

// poolAnswers holds the flat-scan answer for every hot-pool point, so
// every hot answer is checked as it arrives.
type poolAnswers []float64

// checkEvery samples the unique-query answers verified after the run:
// every k-NN answer and every checkEvery-th NN answer of each client.
const checkEvery = 4

// closedLoop runs one phase with one client per stream, client i talking
// to addrs[i], each sending its next request as soon as the previous answer
// arrives, until dur elapses.
func closedLoop(w *workload, addrs []string, dur time.Duration, streams []*stream, t *tracer, pool poolAnswers) []*tally {
	out := make([]*tally, len(streams))
	begin := time.Now()
	end := begin.Add(dur)
	var wg sync.WaitGroup
	for ci := range streams {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			tl := &tally{}
			out[ci] = tl
			c := newConn(addrs[ci], t)
			defer c.close()
			s := streams[ci]
			prev := time.Now()
			var rep reply
			for i := 0; ; i++ {
				q := s.next()
				start := time.Now()
				if !start.Before(end) {
					return
				}
				tl.lag = append(tl.lag, micros(start.Sub(prev)))
				var err error
				if q.knn {
					err = c.knn(q.p, w.knnK, &rep)
				} else {
					err = c.nn(q.p, &rep)
				}
				prev = time.Now()
				if !tl.outcome(err, &rep) {
					continue
				}
				lat := micros(prev.Sub(start))
				at := prev.Sub(begin).Seconds()
				tl.readAt = append(tl.readAt, at)
				switch {
				case q.knn:
					tl.knn = append(tl.knn, lat)
					tl.checks = append(tl.checks, knnCheck(q.p, &rep))
				case q.pool >= 0:
					tl.nn = append(tl.nn, lat)
					tl.nnAt = append(tl.nnAt, at)
					if !sameDist(rep.Dist2, pool[q.pool]) {
						tl.failed++
					}
				default:
					tl.nn = append(tl.nn, lat)
					tl.nnAt = append(tl.nnAt, at)
					if i%checkEvery == 0 {
						tl.checks = append(tl.checks, check{q: q.p, got: []float64{rep.Dist2}})
					}
				}
			}
		}(ci)
	}
	wg.Wait()
	return out
}

// writer is the churn stream of the open-loop workload: it inserts fresh
// points and deletes the oldest point it inserted, keeping writeLag of its
// points live, so the live n stays steady.
type writer struct {
	w       *workload
	rng     *rand.Rand
	live    []acked // inserted and not yet deleted, oldest first
	deleted []acked
	ops     int
}

// acked is a write the server acknowledged.
type acked struct {
	id int
	p  vec.Point
}

func (wr *writer) insert(c *conn, tl *tally, due time.Time) {
	p := uniformPoint(wr.rng, wr.w.d)
	var rep reply
	err := c.insert(p, &rep)
	done := time.Now()
	if tl.outcome(err, &rep) {
		wr.live = append(wr.live, acked{id: rep.ID, p: p})
		tl.ins = append(tl.ins, micros(done.Sub(due)))
	}
}

func (wr *writer) delete(c *conn, tl *tally, due time.Time) {
	victim := wr.live[0]
	var rep reply
	err := c.delete(victim.id, &rep)
	done := time.Now()
	if tl.outcome(err, &rep) {
		wr.live = wr.live[1:]
		wr.deleted = append(wr.deleted, victim)
		tl.del = append(tl.del, micros(done.Sub(due)))
	}
}

// fill inserts points, untimed, until writeLag of them are live.
func (wr *writer) fill(c *conn) error {
	tl := &tally{}
	for len(wr.live) < wr.w.writeLag {
		wr.insert(c, tl, time.Now())
		if tl.failed > 0 {
			return fmt.Errorf("pre-insert failed")
		}
	}
	return nil
}

// openLoop runs one phase of the mixed workload: reads and writes are sent
// on fixed schedules from two connections, and each latency is timed from
// the moment its request was due. Reads go to addrs[0], writes to addrs[1].
func openLoop(w *workload, addrs []string, dur time.Duration, reads *stream, wr *writer, t *tracer) (rt, wt *tally) {
	rt, wt = &tally{}, &tally{}
	start := time.Now()
	end := start.Add(dur)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := newConn(addrs[0], t)
		defer c.close()
		period := float64(time.Second) / w.readRate
		var rep reply
		var prev time.Time
		for i := 0; ; i++ {
			due := start.Add(time.Duration(float64(i) * period))
			if !due.Before(end) {
				return
			}
			q := reads.next()
			waitUntil(due)
			sent := time.Now()
			rt.lag = append(rt.lag, micros(sent.Sub(laterOf(due, prev))))
			err := c.nn(q.p, &rep)
			done := time.Now()
			prev = done
			if rt.outcome(err, &rep) {
				rt.nn = append(rt.nn, micros(done.Sub(due)))
				rt.nnAt = append(rt.nnAt, done.Sub(start).Seconds())
				rt.readAt = append(rt.readAt, done.Sub(start).Seconds())
			}
		}
	}()
	go func() {
		defer wg.Done()
		c := newConn(addrs[1], t)
		defer c.close()
		period := float64(time.Second) / w.writeRate
		for j := 0; ; j++ {
			due := start.Add(time.Duration(float64(j) * period))
			if !due.Before(end) {
				return
			}
			waitUntil(due)
			if wr.ops%2 == 0 || len(wr.live) == 0 {
				wr.insert(c, wt, due)
			} else {
				wr.delete(c, wt, due)
			}
			wr.ops++
		}
	}()
	wg.Wait()
	return rt, wt
}

func laterOf(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}
