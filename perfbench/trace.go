package main

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing for the traced run. The recorder keeps spans in memory while
// the workload runs and writes them out at the end; per-layer self
// times are derived afterwards from the span tree. A nil or switched-off
// *recorder records nothing, so untraced code paths differ from traced
// ones by the recording alone.

// span is one timed call into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: no parent
	Name   string `json:"name"`   // "<layer>.<operation>", e.g. "router.ingest"
	// Req links spans of one request across the HTTP hop: the ingest
	// line offset of a batch (the router's X-Titan-Seq-Base), or "".
	Req   string        `json:"req,omitempty"`
	Start time.Duration `json:"start_ns"` // offset from the recorder's epoch
	End   time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

type recorder struct {
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

// newRecorder returns a recorder, recording from the start when on.
func newRecorder(on bool) *recorder {
	r := &recorder{epoch: time.Now()}
	r.on.Store(on)
	return r
}

// begin opens a span and returns its id (0 when not recording).
func (r *recorder) begin(name string, parent int, req string) int {
	if r == nil || !r.on.Load() {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Req: req, Start: now})
	return len(r.spans)
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// benchSeqHeader carries the benchmark's own line offset of an ingest
// batch to the router-side span, where it becomes the span's request
// id; the router assigns the same number as X-Titan-Seq-Base because
// sequences are dense over accepted batches of one ordered sender.
const benchSeqHeader = "X-Bench-Seq"

// wrapHandler records one span per request served by h: "<layer>.ingest"
// for POST /ingest, "<layer>.read" for everything else. reqHeader names
// the header whose value becomes the span's request id.
func (r *recorder) wrapHandler(layer string, h http.Handler, reqHeader string) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		op := ".read"
		if req.Method == http.MethodPost {
			op = ".ingest"
		}
		id := r.begin(layer+op, 0, req.Header.Get(reqHeader))
		h.ServeHTTP(w, req)
		r.end(id)
	})
}

// link assigns parents to the HTTP-side spans: a replica ingest span to
// the router ingest span carrying the same sequence base, a router
// ingest span to the benchmark's client span with the same line offset,
// and a replica read span to the router read span whose interval holds
// it (the router's read fan-out carries no id; the benchmark's reads are
// issued by one reader at a time, so containment is unambiguous). It
// returns how many replica spans found no parent.
func link(spans []span) (unlinked int) {
	clientByReq := map[string]int{}
	routerByReq := map[string]int{}
	var routerReads []span
	for _, s := range spans {
		switch s.Name {
		case "bench.ingest":
			clientByReq[s.Req] = s.ID
		case "router.ingest":
			routerByReq[s.Req] = s.ID
		case "router.read":
			routerReads = append(routerReads, s)
		}
	}
	sort.Slice(routerReads, func(i, j int) bool { return routerReads[i].Start < routerReads[j].Start })
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 {
			continue
		}
		switch s.Name {
		case "router.ingest":
			s.Parent = clientByReq[s.Req]
		case "serve.ingest":
			if s.Parent = routerByReq[s.Req]; s.Parent == 0 {
				unlinked++
			}
		case "serve.read":
			k := sort.Search(len(routerReads), func(k int) bool { return routerReads[k].Start > s.Start }) - 1
			if k >= 0 && routerReads[k].End >= s.End {
				s.Parent = routerReads[k].ID
			} else {
				unlinked++
			}
		}
	}
	return unlinked
}

// selfTimes returns each span's self time, keyed by span id: its
// duration minus the part of its interval covered by its children
// (overlapping children are counted once).
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			total += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// layerTable sums self time per span name — the per-layer table printed
// beside the end-to-end one.
func layerTable(spans []span) string {
	self := selfTimes(spans)
	type row struct {
		name  string
		n     int
		total time.Duration
	}
	rows := map[string]*row{}
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &row{name: s.Name}
			rows[s.Name] = r
		}
		r.n++
		r.total += self[s.ID]
	}
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "  %-22s %8s %14s\n", "span", "count", "self_ms")
	for _, n := range names {
		fmt.Fprintf(&b, "  %-22s %8d %14.3f\n", n, rows[n].n, ms(rows[n].total))
	}
	return b.String()
}
