package router

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sort"
	"sync"

	"titanre/internal/serve"
	"titanre/internal/titanql"
)

// Read-side fan-out and deterministic merge.
//
// Every cluster read follows the same shape: ask all replicas, combine
// with an operator that is commutative and associative over disjoint
// event sets, render with the identical writeJSON the replicas use.
// Because the router's ingest split partitions lines exactly once
// across replicas, the merged answer equals the single-daemon answer
// over the undivided stream — byte for byte, which is how the tests
// check it.
//
//   - /rollup, /top and /query fetch ?partial=1 titanql partials and
//     merge them with one handler (replica partials and segment
//     partials are the same algebra), ranking only after the
//     cluster-wide merge — ranking before merging would be wrong
//     whenever a key's count is split across replicas.
//   - /alerts is the stateful one: it unions the replicas' evidence
//     feeds and replays them in global sequence order through a fresh
//     detector engine (see internal/serve's alert feed for the
//     superset-replay argument).

// DegradedHeader is set on /alerts responses that cannot vouch for
// single-daemon exactness (a replica's feed was incomplete, or replica
// alert configs diverge). The body is still the best available merge.
const DegradedHeader = "X-Titan-Degraded"

// fanResult is one replica's response to a read fan-out.
type fanResult struct {
	replica string
	status  int
	body    []byte
	err     error
}

// fanOut GETs path?query from every replica concurrently.
func (rt *Router) fanOut(r *http.Request, path, rawQuery string) []fanResult {
	rt.metrics.readFanouts.Add(1)
	results := make([]fanResult, len(rt.cfg.Replicas))
	var wg sync.WaitGroup
	for ri, base := range rt.cfg.Replicas {
		wg.Add(1)
		go func(ri int, base string) {
			defer wg.Done()
			res := fanResult{replica: base}
			u := base + path
			if rawQuery != "" {
				u += "?" + rawQuery
			}
			req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, u, nil)
			if err != nil {
				res.err = err
				results[ri] = res
				return
			}
			resp, err := rt.client.Do(req)
			if err != nil {
				res.err = err
				results[ri] = res
				return
			}
			defer resp.Body.Close()
			res.status = resp.StatusCode
			res.body, res.err = io.ReadAll(resp.Body)
			results[ri] = res
		}(ri, base)
	}
	wg.Wait()
	return results
}

// gatherOK filters fan-out results, writing the error response and
// returning ok=false when any replica failed. A replica's 400 (bad
// query) is forwarded as-is — all replicas parse the same query, so the
// first bad-request body speaks for the cluster.
func (rt *Router) gatherOK(w http.ResponseWriter, results []fanResult) bool {
	for _, res := range results {
		if res.err != nil {
			rt.metrics.readErrors.Add(1)
			http.Error(w, fmt.Sprintf("replica %s: %v", res.replica, res.err), http.StatusBadGateway)
			return false
		}
		if res.status == http.StatusBadRequest {
			rt.metrics.readErrors.Add(1)
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			w.WriteHeader(http.StatusBadRequest)
			_, _ = w.Write(res.body)
			return false
		}
		if res.status != http.StatusOK {
			rt.metrics.readErrors.Add(1)
			http.Error(w, fmt.Sprintf("replica %s: status %d", res.replica, res.status), http.StatusBadGateway)
			return false
		}
	}
	return true
}

// partialQuery re-encodes the client's query string with partial=1
// appended, preserving every other parameter verbatim.
func partialQuery(r *http.Request) string {
	q := r.URL.Query()
	q.Set("partial", "1")
	return q.Encode()
}

func decodeAll[T any](results []fanResult) ([]T, error) {
	out := make([]T, len(results))
	for i, res := range results {
		if err := json.Unmarshal(res.body, &out[i]); err != nil {
			return nil, fmt.Errorf("replica %s: decoding partial: %w", res.replica, err)
		}
	}
	return out, nil
}

// handleMerged serves /rollup, /top and /query alike: every replica
// answers ?partial=1 with a titanql.Partial, MergePartials folds them
// into the exact single-daemon document — ranking and K-truncation
// happen only here, after cluster-wide counts are whole — and the
// endpoint's body (the bare RollupDoc or TopDoc, or the whole query
// Doc) is written exactly as one daemon would.
func (rt *Router) handleMerged(w http.ResponseWriter, r *http.Request) {
	results := rt.fanOut(r, r.URL.Path, partialQuery(r))
	if !rt.gatherOK(w, results) {
		return
	}
	parts, err := decodeAll[titanql.Partial](results)
	var doc titanql.Doc
	if err == nil {
		doc, err = titanql.MergePartials(parts)
	}
	if err != nil {
		rt.metrics.readErrors.Add(1)
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	rt.metrics.mergedQueries.Add(1)
	writeJSON(w, doc.Body())
}

// handleAlerts reconstructs the cluster-wide alert stream: union the
// replicas' evidence feeds, sort by global sequence (records arrive
// sorted per replica; the union is deduped by seq and re-sorted), and
// replay through a fresh engine with the shared config. When any feed
// is incomplete or configs diverge the response is marked degraded but
// still served — a best-effort alert list beats a 502 during partial
// fleet visibility.
func (rt *Router) handleAlerts(w http.ResponseWriter, r *http.Request) {
	results := rt.fanOut(r, "/alertfeed", "")
	if !rt.gatherOK(w, results) {
		return
	}
	docs, err := decodeAll[serve.FeedDoc](results)
	if err != nil {
		rt.metrics.readErrors.Add(1)
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	degraded := ""
	bySeq := make(map[uint64]serve.FeedRecord)
	for i, doc := range docs {
		if !doc.Complete {
			degraded = fmt.Sprintf("replica %s: incomplete alert feed", results[i].replica)
		}
		if i > 0 && !reflect.DeepEqual(doc.Config, docs[0].Config) {
			degraded = fmt.Sprintf("replica %s: alert config diverges", results[i].replica)
		}
		for _, rec := range doc.Records {
			bySeq[rec.Seq] = rec
		}
	}
	records := make([]serve.FeedRecord, 0, len(bySeq))
	for _, rec := range bySeq {
		records = append(records, rec)
	}
	sort.Slice(records, func(i, j int) bool { return records[i].Seq < records[j].Seq })
	alerts, err := serve.ReplayFeed(docs[0].Config, records)
	if err != nil {
		rt.metrics.readErrors.Add(1)
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	if degraded != "" {
		rt.metrics.degradedAlerts.Add(1)
		w.Header().Set(DegradedHeader, degraded)
	}
	rt.metrics.mergedAlerts.Add(1)
	writeJSON(w, serve.AlertViews(alerts))
}
