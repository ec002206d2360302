package rnknn

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rnknn/internal/core"
	"rnknn/internal/knn"
	"rnknn/internal/planner"
)

// pooledSession wraps one core.Session with the per-session state the DB
// layer reuses across queries: the context-cancellation closure (created
// once at manufacture, so arming the interrupt hook per query allocates
// nothing) and the scratch buffer every single-query search answers into.
type pooledSession struct {
	sess core.Session
	// in is the session's interrupt hook, nil when the method's scans are
	// not interruptible.
	in knn.Interruptible
	// ctx is the context check reads; set by arm, cleared by disarm.
	ctx   context.Context
	check func() bool
	// buf holds the last search's answer until the caller copies it out.
	buf []Result
}

func newPooledSession(s core.Session) *pooledSession {
	ps := &pooledSession{sess: s}
	ps.in, _ = s.(knn.Interruptible)
	ps.check = func() bool { return ps.ctx != nil && ps.ctx.Err() != nil }
	return ps
}

// arm installs the context-cancellation interrupt for one query; disarm
// removes it. Both are no-ops for non-interruptible methods.
func (ps *pooledSession) arm(ctx context.Context) {
	if ps.in == nil {
		return
	}
	ps.ctx = ctx
	ps.in.SetInterrupt(ps.check)
}

func (ps *pooledSession) disarm() {
	if ps.in == nil {
		return
	}
	ps.in.SetInterrupt(nil)
	ps.ctx = nil
}

// sessionPool hands out single-goroutine query sessions of one method kind.
// Sessions hold the method's search state (distance arrays, heaps, per-
// session oracle state), so pooling them is what makes unbounded concurrent
// callers cheap: a goroutine reuses a free session or manufactures a new
// one, and returns it when the query finishes.
type sessionPool struct {
	eng  *core.Engine
	kind core.MethodKind
	pool sync.Pool
	// gets/puts count checkouts and returns; the streaming tests compare
	// them to prove early-broken KNNSeq iterations release their session.
	// (Counting manufactures instead would be nondeterministic: the race-
	// detector build of sync.Pool drops Puts at random.)
	gets atomic.Uint64
	puts atomic.Uint64
}

func newSessionPool(eng *core.Engine, kind core.MethodKind) *sessionPool {
	return &sessionPool{eng: eng, kind: kind}
}

// get returns a session rebound to b, manufacturing one when the pool is
// empty.
func (p *sessionPool) get(b *core.Binding) (*pooledSession, error) {
	p.gets.Add(1)
	if ps, ok := p.pool.Get().(*pooledSession); ok {
		ps.sess.Rebind(b)
		return ps, nil
	}
	s, err := p.eng.NewSession(p.kind, b)
	if err != nil {
		return nil, err
	}
	return newPooledSession(s), nil
}

func (p *sessionPool) put(ps *pooledSession) {
	p.puts.Add(1)
	p.pool.Put(ps)
}

// queryOpts collects per-query options.
type queryOpts struct {
	method    Method
	methodSet bool
	category  string
}

// QueryOption configures one KNN or Range call. It is a plain value (not a
// closure): building and applying options never touches the heap, which
// keeps the KNNAppend/RangeAppend hot paths allocation-free.
type QueryOption struct {
	method      Method
	methodSet   bool
	category    string
	categorySet bool
}

// WithMethod selects the method answering this query (default: the DB's
// first enabled method).
func WithMethod(m Method) QueryOption {
	return QueryOption{method: m, methodSet: true}
}

// WithCategory selects the object category this query searches (default
// DefaultCategory).
func WithCategory(name string) QueryOption {
	return QueryOption{category: name, categorySet: true}
}

func (db *DB) applyOpts(opts []QueryOption) queryOpts {
	qo := queryOpts{method: db.methods[0], category: DefaultCategory}
	for _, o := range opts {
		if o.methodSet {
			qo.method = o.method
			qo.methodSet = true
		}
		if o.categorySet {
			qo.category = o.category
		}
	}
	return qo
}

// request is one query as every entry point hands it to the query core:
// prepare validates it and resolves its method, search runs it on a
// checked-out session. Batch keeps one per added query.
type request struct {
	q       int32
	k       int
	radius  Dist
	isRange bool
	qo      queryOpts
	// route, when non-nil, is a Monitor's whole route (q is route[0]);
	// prepare's vertex check then covers every route vertex.
	route []int32
	// group, when non-nil, makes search run one shared expansion answering
	// every member into groupOut (Batch's shared path; INE and G-tree
	// sessions only).
	group    []knn.GroupQuery
	groupOut [][]knn.Result
	// reason is the planner's rationale, set by prepare when it resolved
	// MethodAuto (Explain reports it).
	reason string
}

// prepare validates req and resolves the method that will answer it. Every
// entry point runs the same checks in the same order, so a request with
// several bad inputs reports the same error everywhere: k (or radius),
// method, ctx, vertex, category. It returns the category binding the query
// pins; MethodAuto resolves through the planner, and range requests always
// run on INE.
func (db *DB) prepare(ctx context.Context, req *request) (*core.Binding, Method, error) {
	if req.isRange {
		if err := checkRadius(req.radius); err != nil {
			return nil, 0, err
		}
		if err := db.checkRangeMethod(req.qo); err != nil {
			return nil, 0, err
		}
	} else {
		if err := checkK(req.k); err != nil {
			return nil, 0, err
		}
		if err := db.checkKNNMethod(req.qo.method); err != nil {
			return nil, 0, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	if err := checkVertex(db.g, req.q); err != nil {
		return nil, 0, err
	}
	for i, v := range req.route {
		if err := checkVertex(db.g, v); err != nil {
			return nil, 0, fmt.Errorf("route[%d]: %w", i, err)
		}
	}
	b, err := db.snapshot(req.qo.category)
	if err != nil {
		return nil, 0, err
	}
	if req.isRange {
		return b, INE, nil
	}
	m := req.qo.method
	if m == MethodAuto {
		c := db.plan.Choose(db.bindKinds, db.features(req.k, b))
		m, req.reason = Method(c.Kind), c.Reason
	}
	return b, m, nil
}

// checkK, checkRadius and checkVertex are the input checks prepare and the
// ShardedDB router share.
func checkK(k int) error {
	if k <= 0 {
		return fmt.Errorf("%w: k=%d", ErrBadK, k)
	}
	return nil
}

func checkRadius(radius Dist) error {
	if radius < 0 {
		return fmt.Errorf("%w: radius=%d", ErrBadRadius, radius)
	}
	return nil
}

func checkVertex(g *Graph, q int32) error {
	if q < 0 || int(q) >= g.NumVertices() {
		return fmt.Errorf("%w: query vertex %d (network has %d vertices)", ErrBadVertex, q, g.NumVertices())
	}
	return nil
}

// checkKNNMethod validates a requested kNN method at the public API
// boundary: MethodAuto is deferred to the planner, anything else must be a
// known method (ErrUnknownMethod) the DB was opened with
// (ErrMethodNotEnabled) — never a silent fallback.
func (db *DB) checkKNNMethod(m Method) error {
	if m == MethodAuto {
		return nil
	}
	if !m.valid() {
		return fmt.Errorf("%w: %d", ErrUnknownMethod, int(m))
	}
	if !db.enabled[m] {
		return fmt.Errorf("%w: %s (enabled: %v)", ErrMethodNotEnabled, m, db.methods)
	}
	return nil
}

// checkRangeMethod validates the method option of a range-style query:
// range queries run only on INE (the one method with a native range form).
// MethodAuto is accepted and resolves to INE; an unknown method value is
// ErrUnknownMethod, a known non-INE method is ErrRangeMethod.
func (db *DB) checkRangeMethod(qo queryOpts) error {
	if !qo.methodSet || qo.method == INE || qo.method == MethodAuto {
		return nil
	}
	if !qo.method.valid() {
		return fmt.Errorf("%w: %d", ErrUnknownMethod, int(qo.method))
	}
	return fmt.Errorf("%w: got %s", ErrRangeMethod, qo.method)
}

// features builds the planner's query-time signals from the live binding.
func (db *DB) features(k int, b *core.Binding) planner.Features {
	return planner.Features{K: k, NumObjects: b.Objs.Len(), NumVertices: db.g.NumVertices()}
}

// search runs a prepared request on a session already bound to b: arm the
// context interrupt, time the method, disarm, drop the answer if ctx fired
// mid-scan (the scan may have been cut short), and record the completed
// query. A single query's answer lands in ps.buf, allocation-free on a warm
// session; a group's answers land in req.groupOut. It returns the search
// time.
func (db *DB) search(ctx context.Context, ps *pooledSession, req *request, b *core.Binding, m Method) (time.Duration, error) {
	ps.arm(ctx)
	start := time.Now()
	switch {
	case req.group != nil:
		ps.sess.(knn.BatchMethod).KNNGroupAppend(req.group, req.groupOut)
	case req.isRange:
		ps.buf = ps.sess.(knn.RangeMethod).RangeAppend(req.q, req.radius, ps.buf[:0])
	default:
		ps.buf = ps.sess.KNNAppend(req.q, req.k, ps.buf[:0])
	}
	elapsed := time.Since(start)
	ps.disarm()
	if err := ctx.Err(); err != nil {
		return elapsed, err
	}
	switch {
	case req.group != nil:
		// Shared members feed the per-method counters but NOT the planner's
		// latency EWMA: an amortized group latency is not a single-query
		// latency and would corrupt the regime cells the grouping decision
		// itself reads.
		per := elapsed / time.Duration(len(req.group))
		for range req.group {
			db.stats.recordKNN(m, per)
		}
	case req.isRange:
		db.stats.recordRange(elapsed)
	default:
		db.recordKNN(m, req.k, b, elapsed)
	}
	return elapsed, nil
}

// recordKNN lands a completed kNN query in the per-method counters and
// feeds the planner's latency EWMA for the query's regime — every query
// trains MethodAuto, not just the auto-planned ones.
func (db *DB) recordKNN(m Method, k int, b *core.Binding, elapsed time.Duration) {
	db.stats.recordKNN(m, elapsed)
	db.plan.Observe(m.kind(), db.features(k, b), elapsed)
}

// run is the one-shot query path behind KNN, Range and their Append and
// Pinned forms: prepare, check a session out, search, and append the
// answer to dst (an exact-size new slice when dst is nil). It also returns
// the epoch of the binding the search pinned. On error dst comes back
// unextended.
func (db *DB) run(ctx context.Context, req *request, dst []Result) ([]Result, uint64, error) {
	b, m, err := db.prepare(ctx, req)
	if err != nil {
		return dst, 0, err
	}
	ps, err := db.pools[m].get(b)
	if err != nil {
		return dst, 0, err
	}
	if _, err = db.search(ctx, ps, req, b, m); err == nil {
		dst = copyOut(dst, ps.buf)
	}
	db.pools[m].put(ps)
	if err != nil {
		return dst, 0, err
	}
	return dst, b.Epoch, nil
}

// copyOut appends a session's scratch answer to dst, allocating dst at
// exactly the answer's size when it is nil.
func copyOut(dst, res []Result) []Result {
	if dst == nil {
		dst = make([]Result, 0, len(res))
	}
	return append(dst, res...)
}

// Plan describes how a query would execute: the concrete method KNN would
// run and, for MethodAuto, the planner's rationale.
type Plan struct {
	// Method is the concrete method that would answer the query.
	Method Method
	// Reason is a one-line human-readable rationale.
	Reason string
}

// Explain resolves the method a KNN call with the same arguments would
// run, without running it. For MethodAuto it reports the planner's choice
// and cost rationale; for a fixed method it validates the request. The
// planner adapts to observed latency, so consecutive Explains may differ.
func (db *DB) Explain(q int32, k int, opts ...QueryOption) (Plan, error) {
	req := request{q: q, k: k, qo: db.applyOpts(opts), reason: "requested with WithMethod"}
	_, m, err := db.prepare(context.Background(), &req)
	if err != nil {
		return Plan{}, err
	}
	return Plan{Method: m, Reason: req.reason}, nil
}

// KNN returns the k nearest objects of the query's category to vertex q by
// network distance (fewer if the live object set is smaller than k), in
// nondecreasing distance order. It is safe for unbounded concurrent
// callers. Cancellation or expiry of ctx is checked between expansion steps
// of the interruptible scans (INE and the IER family), so long graph-wide
// scans return promptly with ctx's error. The query runs allocation-free
// into pooled scratch; the one allocation is the exact-size result slice.
func (db *DB) KNN(ctx context.Context, q int32, k int, opts ...QueryOption) ([]Result, error) {
	res, _, err := db.run(ctx, &request{q: q, k: k, qo: db.applyOpts(opts)}, nil)
	return res, err
}

// KNNAppend answers the same query as KNN but appends the results to dst
// and returns the extended slice — the zero-allocation form of the public
// API: a caller reusing its buffer across queries (one buffer per
// goroutine, like any append target) pays no per-query heap allocation on
// a warm DB, because the pooled session's search state is reused and
// result storage is caller-owned. Identical validation, method resolution,
// cancellation, and Stats/planner recording; on error, dst is returned
// unextended.
func (db *DB) KNNAppend(ctx context.Context, q int32, k int, dst []Result, opts ...QueryOption) ([]Result, error) {
	res, _, err := db.run(ctx, &request{q: q, k: k, qo: db.applyOpts(opts)}, dst)
	return res, err
}

// KNNPinned answers the same query as KNN and additionally reports the
// epoch of the category snapshot the search pinned — read from the very
// binding the query ran on, not re-read around the call. That atomicity is
// what an exact result cache keyed on (vertex, k, category, epoch) needs: a
// result stamped with epoch E was computed from exactly epoch E's object
// set, so storing it under E can never serve an answer from one epoch to a
// reader observing another, no matter how much churn raced the query. The
// serving layer (internal/serve) is the intended caller; everything else
// is identical to KNN.
func (db *DB) KNNPinned(ctx context.Context, q int32, k int, opts ...QueryOption) ([]Result, uint64, error) {
	return db.run(ctx, &request{q: q, k: k, qo: db.applyOpts(opts)}, nil)
}

// Range returns every object of the query's category within network
// distance radius of vertex q, in nondecreasing distance order. Range
// queries always run incremental network expansion (the one method with a
// native range form); passing WithMethod with any other concrete method
// reports ErrRangeMethod (an unknown one, ErrUnknownMethod), while
// MethodAuto resolves to INE. Safe for unbounded concurrent callers, with
// the same context semantics as KNN.
func (db *DB) Range(ctx context.Context, q int32, radius Dist, opts ...QueryOption) ([]Result, error) {
	res, _, err := db.run(ctx, &request{q: q, radius: radius, isRange: true, qo: db.applyOpts(opts)}, nil)
	return res, err
}

// RangeAppend answers the same query as Range but appends the results to
// dst and returns the extended slice — the zero-allocation form, mirroring
// KNNAppend. On error, dst is returned unextended.
func (db *DB) RangeAppend(ctx context.Context, q int32, radius Dist, dst []Result, opts ...QueryOption) ([]Result, error) {
	res, _, err := db.run(ctx, &request{q: q, radius: radius, isRange: true, qo: db.applyOpts(opts)}, dst)
	return res, err
}

// RangePinned answers the same query as Range and additionally reports the
// epoch of the category snapshot the search pinned — the range analogue of
// KNNPinned, which the serving layer's range cache keys on.
func (db *DB) RangePinned(ctx context.Context, q int32, radius Dist, opts ...QueryOption) ([]Result, uint64, error) {
	return db.run(ctx, &request{q: q, radius: radius, isRange: true, qo: db.applyOpts(opts)}, nil)
}

// BruteForceKNN answers the query by a plain Dijkstra expansion over the
// category's live object set — the correctness reference every method is
// validated against. A WithMethod option is validated (unknown or
// disabled methods are typed errors, not silently ignored) but the
// expansion always runs the reference scan; not recorded in Stats.
func (db *DB) BruteForceKNN(q int32, k int, opts ...QueryOption) ([]Result, error) {
	b, _, err := db.prepare(context.Background(), &request{q: q, k: k, qo: db.applyOpts(opts)})
	if err != nil {
		return nil, err
	}
	return knn.BruteForce(db.g, b.Objs, q, k), nil
}

// BruteForceRange is the range-query correctness reference, mirroring
// BruteForceKNN.
func (db *DB) BruteForceRange(q int32, radius Dist, opts ...QueryOption) ([]Result, error) {
	b, _, err := db.prepare(context.Background(), &request{q: q, radius: radius, isRange: true, qo: db.applyOpts(opts)})
	if err != nil {
		return nil, err
	}
	return knn.BruteForceRange(db.g, b.Objs, q, radius), nil
}

// SameResults reports whether two result lists agree, tolerating reordering
// among tied distances (and any choice of ties at the k-th distance).
func SameResults(a, b []Result) bool { return knn.SameResults(a, b) }

// FormatResults renders results compactly ("[vertex:dist ...]") for logs.
func FormatResults(rs []Result) string { return knn.FormatResults(rs) }
