// Sharded serving front: the HTTP face of rnknn.OpenSharded. Every shard
// gets a full Server — its own admission semaphore, epoch-keyed result
// cache, and coalescer, keyed on that shard's exact epochs — and the front
// routes /knn and /range through rnknn.ShardedDB's fan-out with the
// per-shard cached query path plugged in: a shard consulted twice for the
// same (vertex, k, epoch) answers the second time from its cache, and
// object churn on one shard invalidates only that shard's entries.
//
// Admission is per shard: a query request holds a slot on every shard it
// actually fans to, so a hot shard sheds load (429) without idling the
// others, and the geometric pruning means most requests touch only a few
// shards' semaphores. /monitor and /batch answer 501 — both are
// per-session/per-plan machinery that a later change can lift to the
// sharded layer; connect to a single-DB server for them today.
package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"sync/atomic"
	"time"

	"rnknn/pkg/rnknn"
)

// errSaturated is returned by a shard's query path when its admission
// semaphore is full; the front maps it to 429.
var errSaturated = errors.New("server saturated: max in-flight queries reached")

// ShardedServer serves one rnknn.ShardedDB over HTTP: a front router plus
// one full Server (admission, cache, coalescer) per shard.
type ShardedServer struct {
	sdb    *rnknn.ShardedDB
	shards []*Server
	mux    *http.ServeMux
}

// NewSharded builds a sharded front over sdb. cfg sizes each per-shard
// Server individually (MaxInFlight and CacheEntries are per shard).
func NewSharded(sdb *rnknn.ShardedDB, cfg Config) *ShardedServer {
	fs := &ShardedServer{sdb: sdb}
	for i := 0; i < sdb.NumShards(); i++ {
		fs.shards = append(fs.shards, New(sdb.Shard(i), cfg))
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", fs.handleHealthz)
	mux.HandleFunc("GET /stats", fs.handleStats)
	mux.HandleFunc("GET /knn", fs.handleKNN)
	mux.HandleFunc("GET /range", fs.handleRange)
	mux.HandleFunc("GET /monitor", fs.handleUnsupported)
	mux.HandleFunc("POST /batch", fs.handleUnsupported)
	mux.HandleFunc("POST /objects/insert", fs.handleObjects(sdb.InsertObjects))
	mux.HandleFunc("POST /objects/remove", fs.handleObjects(sdb.RemoveObjects))
	fs.mux = mux
	return fs
}

// Handler returns the HTTP handler serving every endpoint.
func (fs *ShardedServer) Handler() http.Handler { return fs.mux }

// Shard returns shard i's Server (its stats and counters).
func (fs *ShardedServer) Shard(i int) *Server { return fs.shards[i] }

func (fs *ShardedServer) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (fs *ShardedServer) handleUnsupported(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusNotImplemented, ErrorResponse{
		Error: "not supported on a sharded front; connect to a single-DB server",
	})
}

func (fs *ShardedServer) handleStats(w http.ResponseWriter, _ *http.Request) {
	g := fs.sdb.Graph()
	out := ShardedStatsResponse{
		Graph:     GraphJSON{NumVertices: g.NumVertices(), NumEdges: g.NumEdges() / 2, Weights: g.Kind.String()},
		NumShards: fs.sdb.NumShards(),
	}
	for i, s := range fs.shards {
		n, _ := fs.sdb.Shard(i).NumObjects(rnknn.DefaultCategory)
		out.Shards = append(out.Shards, ShardStatsJSON{Server: s.Stats(), NumObjects: n})
	}
	writeJSON(w, http.StatusOK, out)
}

// query is Server.query lifted to the shard set: it fans one kNN or range
// key through rnknn.ShardedDB's router, each consulted shard answering via
// its own admission slot (or shedding), cache, and coalescer. It reports
// whether every consulted shard answered without running a search.
func (fs *ShardedServer) query(r *http.Request, key cacheKey, method rnknn.Method) ([]rnknn.Result, bool, error) {
	var searched atomic.Bool
	shardQuery := func(shard int) ([]rnknn.Result, error) {
		s := fs.shards[shard]
		if !s.adm.tryAcquire() {
			return nil, errSaturated
		}
		defer s.adm.release()
		s.requests.Add(1)
		rs, _, cached, err := s.query(r.Context(), key, method)
		if !cached {
			searched.Store(true)
		}
		return rs, err
	}
	var res []rnknn.Result
	var err error
	if key.radius < 0 {
		res, err = fs.sdb.FanKNN(r.Context(), key.vertex, int(key.k), shardQuery)
	} else {
		res, err = fs.sdb.FanRange(r.Context(), key.vertex, rnknn.Dist(key.radius), shardQuery)
	}
	return res, !searched.Load(), err
}

func (fs *ShardedServer) handleKNN(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	qv, err := int32Param(r, "q", -1)
	if err != nil {
		writeError(w, err)
		return
	}
	k, err := int32Param(r, "k", 10)
	if err != nil {
		writeError(w, err)
		return
	}
	methodName, method, err := methodParam(r)
	if err != nil {
		writeError(w, err)
		return
	}
	key := cacheKey{vertex: qv, k: k, radius: -1, category: categoryParam(r)}
	res, cached, err := fs.query(r, key, method)
	if err != nil {
		writeShardedError(w, err)
		return
	}
	// The composite epoch identifies the cross-shard object-set version the
	// answer reflects (informational — see rnknn.ShardedDB.Epoch).
	key.epoch, _ = fs.sdb.Epoch(key.category)
	writeKNN(w, key, methodName, res, cached, start)
}

func (fs *ShardedServer) handleRange(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	qv, err := int32Param(r, "q", -1)
	if err != nil {
		writeError(w, err)
		return
	}
	radius, err := intParam(r, "radius", -1)
	if err != nil {
		writeError(w, err)
		return
	}
	key := cacheKey{vertex: qv, radius: int64(radius), category: categoryParam(r)}
	res, cached, err := fs.query(r, key, rnknn.MethodAuto)
	if err != nil {
		writeShardedError(w, err)
		return
	}
	key.epoch, _ = fs.sdb.Epoch(key.category)
	writeRange(w, key, res, cached, start)
}

// handleObjects routes one mutation through the ShardedDB (which splits
// the vertices by owning cell), bypassing admission and caches like the
// single-DB path — per-shard epochs advance, retiring exactly the
// affected shards' cache entries.
func (fs *ShardedServer) handleObjects(mutate func(string, []int32) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req ObjectsRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "bad objects body: " + err.Error()})
			return
		}
		if req.Category == "" {
			req.Category = rnknn.DefaultCategory
		}
		if err := mutate(req.Category, req.Vertices); err != nil {
			writeError(w, err)
			return
		}
		epoch, err := fs.sdb.Epoch(req.Category)
		if err != nil {
			writeError(w, err)
			return
		}
		n, _ := fs.sdb.NumObjects(req.Category)
		writeJSON(w, http.StatusOK, ObjectsResponse{Category: req.Category, Epoch: epoch, NumObjects: n})
	}
}

// writeShardedError is writeError plus the sharded-only saturation case: a
// fanned shard refusing admission sheds the whole request.
func writeShardedError(w http.ResponseWriter, err error) {
	if errors.Is(err, errSaturated) {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, ErrorResponse{Error: err.Error()})
		return
	}
	writeError(w, err)
}
