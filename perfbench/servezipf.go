package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rnknn/internal/gen"
	"rnknn/internal/graph"
	"rnknn/internal/knn"
	"rnknn/internal/loadtest"
	"rnknn/internal/serve"
	"rnknn/pkg/rnknn"
)

// serve-zipf is the deployed read path: rnknnd's serving stack over a
// mapped NW snapshot, driven open loop with Zipf-skewed vertices. Request
// decoding, admission, the result cache, the coalescer, the planner and
// JSON encoding do most of the work here and the search little, so a cache
// or encoding change shows here and should not move knn-grid; the object
// churn makes a read-side gain that costs writes or cache validity show.
//
// Requests are handed to Server.Handler in process rather than over a
// loopback socket: on two processors the kernel round trip and the
// goroutine wake-ups around it took 80-110 us per request and moved by a
// third between identical runs, several times the serving stack's own
// ~35 us, so socket timings could not tell a serving change from noise.

const (
	serveRate  = 2000.0 // nominal arrivals per second
	serveHot   = 4096   // Zipf hot-vertex pool, larger than the 4096-entry cache
	serveZipfS = 1.0
	// serveCallers is the number of concurrent callers, as two keep-alive
	// connections would be; it matches the two processors, where more
	// would only queue on the same cores.
	serveCallers = 2
	serveSetups  = 9
	serveWarmup  = time.Second
	serveProbe   = 300 * time.Millisecond
	serveStep    = 1.05 // geometric ladder step between probed rates
	// serveSLO bounds a probe's read p90. The p99 is printed but not
	// gated on: on two shared processors it is set by millisecond stalls
	// of the whole process that no serving change controls.
	serveSLO     = time.Millisecond
	serveMaxFail = 0.001
	// One answer in serveCheckOneIn (seeded) is checked against brute force.
	serveCheckOneIn = 40
	serveBatchSize  = 16
	// serveClosedRate sizes the closed-loop phase: requests per measured
	// second of the run's budget share, about what one caller completes.
	serveClosedRate = 12000
	// serveWindows is the number of windows the nominal phase's latency
	// quantiles are taken over before their median is reported.
	serveWindows = 9
	// serveGrace is how long after its last due time a phase still starts
	// requests; arrivals not sent by then count as failed.
	serveGrace = 250 * time.Millisecond
)

var (
	serveRadii = []int64{1500, 3000, 6000}
	// k-mix 1:1, 10:6, 50:1.
	serveKMix    = []int{1, 10, 10, 10, 10, 10, 10, 50}
	serveMethods = []rnknn.Method{rnknn.INE, rnknn.IERPHL, rnknn.Gtree}
)

type opKind uint8

const (
	opKNN opKind = iota
	opRange
	opBatch
	opInsert
	opRemove
)

// sop is one generated request.
type sop struct {
	kind    opKind
	method  string
	path    string
	body    []byte
	q       int32
	k       int
	radius  int64
	cat     string
	members []int32
	mut     int // index into serveBench.muts for insert/remove
	check   bool
}

// mutation is one object insert or remove on the sparse category. A remove
// names a vertex an earlier insert added and is sent only once that insert
// has been answered, so every mutation changes the set and advances the
// epoch by one: the epochs the server reports order them.
type mutation struct {
	vertex int32
	insert bool
	// sent: the request went out; ok: it was answered, with epoch.
	sent  bool
	ok    bool
	epoch uint64
	done  atomic.Bool
}

// checkRec is one answer kept for the brute-force check.
type checkRec struct {
	kind   opKind
	q      int32
	k      int
	radius int64
	cat    string
	epoch  uint64
	res    []serve.ResultJSON
}

// phase is one open-loop run at a fixed rate. Times are nanoseconds since
// start. Each op index is written by the one sender that took it and read
// only after the senders have finished.
type phase struct {
	start     time.Time
	wall      time.Duration // closed phases: from the first send to the last answer
	ops       []*sop
	due       []int64
	send      []int64
	done      []int64
	status    []uint8
	handlerUS []int64
	checks    [][]checkRec
	// srvStart/srvEnd bracket ServeHTTP in traced phases.
	srvStart, srvEnd       []int64
	backlogMid, backlogEnd int64
}

const (
	stOK uint8 = iota
	stErr
	stRefused
	stUnsent
)

type serveBench struct {
	r   *run
	g   *graph.Graph
	db  *rnknn.DB
	srv *serve.Server
	h   http.Handler

	rng    *rand.Rand
	zipf   *loadtest.Zipf
	hot    []int32
	cells  [][]int32
	fresh  []int32
	muts   []*mutation
	sparse []int32
	dense  []int32
}

func runServeZipf(r *run) error {
	dir := filepath.Join(r.outDir, "serve-zipf")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	snap := filepath.Join(dir, "nw.rnks")
	defer os.Remove(snap)
	// Preparation, not timed: build the snapshot the server opens.
	spec, _ := gen.LadderSpec("NW")
	pdb, err := rnknn.Open(gen.Network(spec), rnknn.WithMethods(serveMethods...))
	if err != nil {
		return err
	}
	if err := pdb.SaveIndexesFile(snap); err != nil {
		return err
	}
	_ = pdb.Close()
	runtime.GC()

	b := &serveBench{r: r}
	setups := serveSetups
	if r.traced {
		setups = 1
	}
	var times []time.Duration
	for i := 0; i < setups; i++ {
		if b.db != nil {
			_ = b.db.Close()
		}
		d, err := b.setup(snap)
		if err != nil {
			return err
		}
		times = append(times, d)
	}
	defer b.db.Close()
	r.m["setup_s"] = medianSeconds(times)
	r.logf("setup: median %.4fs over %d (open %.4fs, register %.4fs)", r.m["setup_s"], len(times), r.m["setup.open_s"], r.m["setup.register_s"])
	for name, ix := range b.db.Stats().Indexes {
		r.m["build."+name+".s"] = ix.BuildTime.Seconds()
		r.m["index."+name+".mb"] = float64(ix.SizeBytes) / (1 << 20)
	}

	b.initInputs()
	var phases []*phase
	warm := b.runPhase(serveRate, serveWarmup, false)
	phases = append(phases, warm)
	b.r.failed += warm.failures()

	// The end-to-end metrics come from the closed loop.
	db0 := b.db.Stats()
	closed := b.closedPhase(int(serveClosedRate * (r.seconds * 2 / 5).Seconds()))
	b.logShares(db0, b.db.Stats())
	phases = append(phases, closed)
	b.r.failed += closed.failures()
	r.m["mem_mb"] = rssMB()
	reads, writes := closed.latencies()
	rs, ws := reads.sorted(), writes.sorted()
	r.m["p50_us"], r.m["tail_us"] = us(median(rs)), us(pct(rs, 0.99))
	r.m["aux_p50_us"] = us(median(ws))
	r.m["qps"] = float64(len(closed.ops)) / closed.wall.Seconds()
	r.logf("serve_p50_us=%.2f serve_p99_us=%.2f (closed loop, one caller; reads=%d) [%s]", r.m["p50_us"], r.m["tail_us"], len(rs), summary(reads))
	r.logf("serve_write_p50_us=%.2f (writes=%d) [%s]", r.m["aux_p50_us"], len(ws), summary(writes))
	r.logf("serve_qps=%.1f (requests=%d in %.3fs)", r.m["qps"], len(closed.ops), closed.wall.Seconds())

	// The open loop at the nominal rate, and the SLO ladder, are reported
	// but not gated on (see serveSLO).
	nominalDur := r.seconds / 5
	nominal := b.runPhase(serveRate, nominalDur, false)
	phases = append(phases, nominal)
	b.r.failed += nominal.failures()
	oreads, owrites := nominal.latencies()
	ows := owrites.sorted()
	late := nominal.lateness().sorted()
	r.logf("http_p50_us=%.2f http_p99_us=%.2f (open loop at %.0f req/s, medians over %d windows; reads=%d) [all: %s]",
		nominal.windowedReads(0.5), nominal.windowedReads(0.99), serveRate, serveWindows, len(oreads), summary(oreads))
	r.logf("write_p50_us=%.2f (writes=%d) [%s]", us(median(ows)), len(ows), summary(owrites))
	r.logf("gen late: p50=%.2fus p99=%.2fus (arrivals=%d)", us(median(late)), us(pct(late, 0.99)), len(late))
	if r.traced {
		tp := b.tracedPhase(nominalDur, nominal)
		phases = append(phases, tp)
	} else {
		slo, probes := b.ladder()
		phases = append(phases, probes...)
		r.logf("slo_qps=%.1f (probes=%d of %v each; read p90 <= %v, failed <= %.1f%%, no backlog growth)", slo, len(probes), serveProbe, serveSLO, 100*serveMaxFail)
	}
	b.verify(phases)
	r.logf("failed_frac=%.6f (failed=%d attempted=%d)", frac(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	return nil
}

// setup opens the mapped snapshot, registers the categories and builds the
// server: the timed set-up.
func (b *serveBench) setup(snap string) (time.Duration, error) {
	start := time.Now()
	db, err := rnknn.OpenSnapshotFile(snap, rnknn.WithMethods(serveMethods...))
	if err != nil {
		return 0, err
	}
	b.r.m["setup.open_s"] = time.Since(start).Seconds()
	t := time.Now()
	g := db.Graph()
	rng := rand.New(rand.NewSource(objectSeed))
	b.sparse = gen.Uniform(g, 0.001, rng.Int63())
	b.dense = gen.Uniform(g, 0.05, rng.Int63())
	if err := db.RegisterObjects("sparse", b.sparse); err != nil {
		return 0, err
	}
	if err := db.RegisterObjects("dense", b.dense); err != nil {
		return 0, err
	}
	b.r.m["setup.register_s"] = time.Since(t).Seconds()
	b.g, b.db = g, db
	b.srv = serve.New(db, serve.Config{})
	b.h = b.srv.Handler()
	return time.Since(start), nil
}

// recorder is a reusable http.ResponseWriter holding one response.
type recorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *recorder) Header() http.Header { return w.header }

func (w *recorder) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *recorder) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(b)
}

func (w *recorder) reset() {
	clear(w.header)
	w.status = 0
	w.body.Reset()
}

// initInputs draws the Zipf hot pool, the batch cells and the vertices
// inserts may add, which are part of the workload like its objects (see
// objectSeed), and seeds the request stream drawn over them.
func (b *serveBench) initInputs() {
	n := b.g.NumVertices()
	fixed := rand.New(rand.NewSource(objectSeed*31 + 7))
	perm := fixed.Perm(n)
	b.hot = make([]int32, min(serveHot, n))
	for i := range b.hot {
		b.hot[i] = int32(perm[i])
	}
	b.cells = hotCells(n, 8, 64, fixed)
	b.rng = rand.New(rand.NewSource(b.r.seed*31 + 7))
	b.zipf = loadtest.NewZipf(b.rng, serveZipfS, len(b.hot))
	in := map[int32]bool{}
	for _, v := range b.sparse {
		in[v] = true
	}
	for _, v := range fixed.Perm(n) {
		if !in[int32(v)] {
			b.fresh = append(b.fresh, int32(v))
		}
	}
}

// next draws the next request of the mix: ~89% /knn, ~8% /range, ~2%
// /batch, ~1% object mutations.
func (b *serveBench) next() *sop {
	u := b.rng.Float64()
	op := &sop{method: http.MethodGet, check: b.rng.Intn(serveCheckOneIn) == 0}
	switch {
	case u < 0.89:
		op.kind, op.q, op.k = opKNN, b.hot[b.zipf.Sample()], serveKMix[b.rng.Intn(len(serveKMix))]
		op.cat = "sparse"
		if b.rng.Intn(2) == 1 {
			op.cat = "dense"
		}
		op.path = fmt.Sprintf("/knn?q=%d&k=%d&category=%s", op.q, op.k, op.cat)
	case u < 0.97:
		op.kind, op.q, op.cat = opRange, b.hot[b.zipf.Sample()], "dense"
		op.radius = serveRadii[b.rng.Intn(len(serveRadii))]
		op.path = fmt.Sprintf("/range?q=%d&radius=%d&category=%s", op.q, op.radius, op.cat)
	case u < 0.99:
		op.kind, op.k, op.cat, op.method, op.path = opBatch, 10, "dense", http.MethodPost, "/batch"
		cell := b.cells[b.rng.Intn(len(b.cells))]
		var req serve.BatchRequest
		for i := 0; i < serveBatchSize; i++ {
			v := cell[b.rng.Intn(len(cell))]
			op.members = append(op.members, v)
			req.Queries = append(req.Queries, serve.BatchQuery{Query: v, K: op.k, Category: op.cat})
		}
		op.body, _ = json.Marshal(req)
	default:
		m := len(b.muts)
		mu := &mutation{insert: m%2 == 0, vertex: b.fresh[m/2]}
		b.muts = append(b.muts, mu)
		op.kind, op.mut, op.cat, op.method = opRemove, m, "sparse", http.MethodPost
		op.path = "/objects/remove"
		if mu.insert {
			op.kind, op.path = opInsert, "/objects/insert"
		}
		op.body, _ = json.Marshal(serve.ObjectsRequest{Category: op.cat, Vertices: []int32{mu.vertex}})
	}
	return op
}

// runPhase runs one open-loop phase: arrivals are due at fixed spacing, the
// generator hands every overdue arrival to the senders, and each request is
// timed from its due time.
func (b *serveBench) runPhase(rate float64, dur time.Duration, traced bool) *phase {
	n := int(rate * dur.Seconds())
	p := &phase{ops: make([]*sop, n), due: make([]int64, n), send: make([]int64, n), done: make([]int64, n),
		status: make([]uint8, n), handlerUS: make([]int64, n), checks: make([][]checkRec, n)}
	for i := range p.ops {
		p.ops[i] = b.next()
		p.due[i] = int64(float64(i) * 1e9 / rate)
	}
	if traced {
		p.srvStart, p.srvEnd = make([]int64, n), make([]int64, n)
	}
	// Every arrival fits in the queue, so the generator never blocks on it.
	queue := make(chan int, n)
	var sent atomic.Int64
	var wg sync.WaitGroup
	p.start = time.Now().Add(5 * time.Millisecond)
	deadline := p.start.Add(dur + serveGrace)
	for c := 0; c < serveCallers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &recorder{header: http.Header{}}
			for i := range queue {
				if time.Now().After(deadline) {
					p.status[i] = stUnsent
					if op := p.ops[i]; op.kind == opInsert || op.kind == opRemove {
						b.muts[op.mut].done.Store(true)
					}
					continue
				}
				sent.Add(1)
				b.do(w, p, i, traced)
			}
		}()
	}
	for i := 0; i < n; i++ {
		waitUntil(p.start.Add(time.Duration(p.due[i])))
		queue <- i
		if i == n/2 {
			p.backlogMid = int64(i+1) - sent.Load()
		}
	}
	p.backlogEnd = int64(n) - sent.Load()
	close(queue)
	wg.Wait()
	b.r.attempted += int64(n)
	return p
}

// do sends request i of p through the server's handler and decodes the
// answer.
func (b *serveBench) do(w *recorder, p *phase, i int, traced bool) {
	op := p.ops[i]
	var mu *mutation
	if op.kind == opInsert || op.kind == opRemove {
		mu = b.muts[op.mut]
		defer mu.done.Store(true)
		if op.kind == opRemove {
			ins := b.muts[op.mut-1]
			for !ins.done.Load() {
				runtime.Gosched()
			}
			if !ins.ok {
				// The insert never reached the server (its probe ended
				// first), so there is nothing to remove.
				p.status[i] = stUnsent
				return
			}
		}
	}
	p.send[i] = int64(time.Since(p.start))
	var body io.Reader
	if op.body != nil {
		body = bytes.NewReader(op.body)
	}
	req, err := http.NewRequest(op.method, "http://perfbench"+op.path, body)
	if err != nil {
		p.status[i] = stErr
		return
	}
	if mu != nil {
		mu.sent = true
	}
	w.reset()
	t0 := time.Since(p.start)
	b.h.ServeHTTP(w, req)
	if traced {
		p.srvStart[i], p.srvEnd[i] = int64(t0), int64(time.Since(p.start))
	}
	switch {
	case w.status == http.StatusTooManyRequests:
		p.status[i] = stRefused
		return
	case w.status != http.StatusOK:
		p.status[i] = stErr
		return
	}
	resp := w.body.Bytes()
	switch op.kind {
	case opKNN, opRange:
		var kr serve.KNNResponse // /range answers decode into the same fields
		if json.Unmarshal(resp, &kr) != nil {
			p.status[i] = stErr
			return
		}
		p.done[i] = int64(time.Since(p.start))
		p.handlerUS[i] = kr.LatencyMicros
		if op.check {
			p.checks[i] = []checkRec{{kind: op.kind, q: op.q, k: op.k, radius: op.radius, cat: op.cat, epoch: kr.Epoch, res: kr.Results}}
		}
	case opBatch:
		var br serve.BatchResponse
		if json.Unmarshal(resp, &br) != nil || len(br.Results) != len(op.members) {
			p.status[i] = stErr
			return
		}
		p.done[i] = int64(time.Since(p.start))
		for j, m := range br.Results {
			if m.Error != "" {
				p.status[i] = stErr
				return
			}
			if op.check {
				p.checks[i] = append(p.checks[i], checkRec{kind: opKNN, q: op.members[j], k: op.k, cat: op.cat, epoch: m.Epoch, res: m.Results})
			}
		}
	default:
		var or serve.ObjectsResponse
		if json.Unmarshal(resp, &or) != nil {
			p.status[i] = stErr
			return
		}
		p.done[i] = int64(time.Since(p.start))
		mu.epoch, mu.ok = or.Epoch, true
	}
}

// latencies returns the successful reads' and writes' times from due time.
func (p *phase) latencies() (reads, writes samples) {
	for i, op := range p.ops {
		if p.status[i] != stOK {
			continue
		}
		if op.kind == opInsert || op.kind == opRemove {
			writes = append(writes, p.done[i]-p.due[i])
		} else {
			reads = append(reads, p.done[i]-p.due[i])
		}
	}
	return reads, writes
}

// closedPhase sends n requests back to back from one caller: the serving
// stack's own cost per request, free of the queueing and goroutine
// scheduling an open loop on two processors adds. Each request's due time
// is the moment it is sent.
func (b *serveBench) closedPhase(n int) *phase {
	p := &phase{ops: make([]*sop, n), due: make([]int64, n), send: make([]int64, n), done: make([]int64, n),
		status: make([]uint8, n), handlerUS: make([]int64, n), checks: make([][]checkRec, n)}
	for i := range p.ops {
		p.ops[i] = b.next()
	}
	w := &recorder{header: http.Header{}}
	p.start = time.Now()
	for i := range p.ops {
		p.due[i] = int64(time.Since(p.start))
		b.do(w, p, i, false)
	}
	p.wall = time.Since(p.start)
	b.r.attempted += int64(n)
	return p
}

// windowedReads splits the phase into serveWindows consecutive windows by
// due time and returns the median over windows of each window's q-quantile
// read latency, in microseconds: a burst of interference from outside the
// process moves one window, not the median.
func (p *phase) windowedReads(q float64) float64 {
	win := make([]samples, serveWindows)
	span := p.due[len(p.due)-1]/serveWindows + 1
	for i, op := range p.ops {
		if p.status[i] != stOK || op.kind == opInsert || op.kind == opRemove {
			continue
		}
		w := p.due[i] / span
		win[w] = append(win[w], p.done[i]-p.due[i])
	}
	var vals []float64
	for _, w := range win {
		vals = append(vals, us(pct(w.sorted(), q)))
	}
	return medianFloat(vals)
}

// lateness is each sent arrival's delay from due time to send.
func (p *phase) lateness() samples {
	var s samples
	for i := range p.ops {
		if p.status[i] != stUnsent {
			s = append(s, p.send[i]-p.due[i])
		}
	}
	return s
}

// count returns how many of p's requests ended with status st.
func (p *phase) count(st uint8) int64 {
	n := int64(0)
	for _, s := range p.status {
		if s == st {
			n++
		}
	}
	return n
}

// failures counts p's requests that did not succeed.
func (p *phase) failures() int64 { return int64(len(p.status)) - p.count(stOK) }

// passes reports whether a probe met the SLO: read p90 within serveSLO
// (failed reads count as missing it), failures within serveMaxFail, and a
// generator backlog that did not grow over the probe.
func (p *phase) passes() (bool, float64) {
	var reads samples
	for i, op := range p.ops {
		if op.kind == opInsert || op.kind == opRemove {
			continue
		}
		if p.status[i] != stOK {
			reads = append(reads, math.MaxInt64)
			continue
		}
		reads = append(reads, p.done[i]-p.due[i])
	}
	p90 := pct(reads.sorted(), 0.9)
	failFrac := float64(p.failures()) / float64(len(p.ops))
	return p90 <= int64(serveSLO) && failFrac <= serveMaxFail && p.backlogEnd <= p.backlogMid+serveCallers, us(p90)
}

// ladder finds the highest rate on the geometric ladder 2000*1.05^i that
// passes the SLO: it doubles i until a probe fails, then bisects between
// the last pass and the first failure.
func (b *serveBench) ladder() (float64, []*phase) {
	var probes []*phase
	results := map[int]bool{}
	rate := func(i int) float64 { return serveRate * math.Pow(serveStep, float64(i)) }
	probe := func(i int) bool {
		if ok, seen := results[i]; seen {
			return ok
		}
		// A failed probe is run once more: interference from outside the
		// process can break one probe at any rate, while an overloaded rate
		// fails both.
		ok := false
		for try := 0; try < 2 && !ok; try++ {
			p := b.runPhase(rate(i), serveProbe, false)
			probes = append(probes, p)
			b.r.failed += p.failures() - p.count(stUnsent)
			var p90 float64
			ok, p90 = p.passes()
			b.r.logf("probe %.0f req/s: p90=%.1fus failed=%d backlog %d->%d pass=%v", rate(i), p90, p.failures(), p.backlogMid, p.backlogEnd, ok)
		}
		results[i] = ok
		return ok
	}
	lo, hi := 0, 1
	if !probe(0) {
		for lo = -1; lo > -40 && !probe(lo); lo-- {
		}
		return rate(lo), probes
	}
	for probe(hi) {
		lo, hi = hi, hi*2
		if hi > 80 {
			return rate(lo), probes
		}
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if probe(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return rate(lo), probes
}

// tracedPhase repeats the open loop at the nominal rate timing ServeHTTP,
// records request spans and reports the serving layers' metrics from
// counter deltas over it.
func (b *serveBench) tracedPhase(dur time.Duration, untraced *phase) *phase {
	r := b.r
	srv0, db0 := b.srv.Stats(), b.db.Stats()
	p := b.runPhase(serveRate, dur, true)
	srv1, db1 := b.srv.Stats(), b.db.Stats()
	b.r.failed += p.failures()

	tr := &tracer{base: p.start}
	var handler, httpSelf, rttSelf samples
	for i, op := range p.ops {
		if p.status[i] != stOK {
			continue
		}
		root := tr.add(span{Req: int64(i), Name: "request", Start: p.due[i], End: p.done[i]})
		tr.add(span{Parent: root, Req: int64(i), Name: "wait", Start: p.due[i], End: p.send[i]})
		call := tr.add(span{Parent: root, Req: int64(i), Name: "call", Start: p.send[i], End: p.done[i]})
		s0, s1 := p.srvStart[i], p.srvEnd[i]
		srvID := tr.add(span{Parent: call, Req: int64(i), Name: "serve", Start: s0, End: s1})
		if op.kind == opKNN || op.kind == opRange {
			h := p.handlerUS[i] * 1000
			tr.add(span{Parent: srvID, Req: int64(i), Name: "handler", Start: s0, End: s0 + h})
			handler = append(handler, h)
			httpSelf = append(httpSelf, s1-s0-h)
			rttSelf = append(rttSelf, p.done[i]-p.send[i]-(s1-s0))
		}
	}
	r.m["serve.handler_p50_us"] = us(median(handler.sorted()))
	r.m["serve.http_self_p50_us"] = us(median(httpSelf.sorted()))
	r.m["client.rtt_self_p50_us"] = us(median(rttSelf.sorted()))
	r.m["gen.late_p99_us"] = us(pct(p.lateness().sorted(), 0.99))
	hits, misses := float64(srv1.CacheHits-srv0.CacheHits), float64(srv1.CacheMisses-srv0.CacheMisses)
	r.m["serve.cache_hit_frac"] = frac(hits, hits+misses)
	r.m["serve.cache_evictions"] = float64(srv1.CacheEvictions - srv0.CacheEvictions)
	r.m["serve.coalesced"] = float64(srv1.Coalesced - srv0.Coalesced)
	r.m["serve.shed"] = float64(srv1.Shed - srv0.Shed)
	bq := float64(srv1.BatchQueries - srv0.BatchQueries)
	r.m["serve.batch_cache_hit_frac"] = frac(float64(srv1.BatchCacheHits-srv0.BatchCacheHits), bq)
	r.m["serve.batch_shared_frac"] = frac(float64(srv1.BatchShared-srv0.BatchShared), bq)
	r.m["db.epoch_advances"] = float64(db1.Epochs["sparse"] - db0.Epochs["sparse"])
	var searchNs, searches, knnTotal float64
	share := map[string]float64{}
	for name, m1 := range db1.Methods {
		m0 := db0.Methods[name]
		searchNs += float64(m1.TotalLatency - m0.TotalLatency)
		searches += float64(m1.KNNQueries - m0.KNNQueries + m1.RangeQueries - m0.RangeQueries)
		share[name] = float64(m1.KNNQueries - m0.KNNQueries)
		knnTotal += share[name]
	}
	r.m["serve.search_mean_us"] = frac(searchNs, searches) / 1e3
	for name, n := range share {
		r.m["planner.share."+name] = frac(n, knnTotal)
	}
	base, _ := untraced.latencies()
	traced, _ := p.latencies()
	r.m["trace.overhead_frac"] = float64(median(traced.sorted()))/float64(median(base.sorted())) - 1
	lines, err := tr.write(r.outDir, fmt.Sprintf("serve-zipf-seed%d", r.seed))
	if err != nil {
		r.logf("trace: %v", err)
	}
	for _, l := range lines {
		r.logf("%s", l)
	}
	return p
}

// verify checks the sampled answers against brute force over the object
// set at each answer's epoch. The benchmark issued every mutation itself,
// so the epochs its mutations were answered with say which set each epoch
// holds.
func (b *serveBench) verify(phases []*phase) {
	r := b.r
	var applied []*mutation
	for _, mu := range b.muts {
		if mu.sent && !mu.ok {
			r.mismatch("mutation of vertex %d failed, so the object set of later epochs is unknown", mu.vertex)
			return
		}
		if mu.ok {
			applied = append(applied, mu)
		}
	}
	byEpoch := make([]*mutation, len(applied))
	for _, mu := range applied {
		if mu.epoch == 0 || mu.epoch > uint64(len(applied)) || byEpoch[mu.epoch-1] != nil {
			r.mismatch("mutation of vertex %d answered with epoch %d: epochs must run 1..%d, one per mutation", mu.vertex, mu.epoch, len(applied))
			return
		}
		byEpoch[mu.epoch-1] = mu
	}
	var recs []checkRec
	for _, p := range phases {
		for _, cs := range p.checks {
			recs = append(recs, cs...)
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].epoch < recs[j].epoch })
	dense := knn.NewObjectSet(b.g, b.dense)
	live := map[int32]bool{}
	for _, v := range b.sparse {
		live[v] = true
	}
	at := uint64(0)
	var sparse *knn.ObjectSet
	for _, c := range recs {
		objs := dense
		if c.cat == "sparse" {
			for ; at < c.epoch && at < uint64(len(byEpoch)); at++ {
				mu := byEpoch[at]
				live[mu.vertex] = mu.insert
				sparse = nil
			}
			if sparse == nil {
				var vs []int32
				for v, in := range live {
					if in {
						vs = append(vs, v)
					}
				}
				sparse = knn.NewObjectSet(b.g, vs)
			}
			objs = sparse
		}
		var want []knn.Result
		if c.kind == opRange {
			want = knn.BruteForceRange(b.g, objs, c.q, c.radius)
		} else {
			want = knn.BruteForce(b.g, objs, c.q, c.k)
		}
		got := make([]knn.Result, len(c.res))
		for i, x := range c.res {
			got[i] = knn.Result{Vertex: x.Vertex, Dist: x.Dist}
		}
		r.attempted++
		if !knn.SameResults(got, want) {
			r.mismatch("HTTP %s q=%d k=%d radius=%d epoch=%d: %s, brute force %s", c.cat, c.q, c.k, c.radius, c.epoch,
				knn.FormatResults(got), knn.FormatResults(want))
		}
	}
	r.logf("checked %d sampled HTTP answers against brute force over %d mutation epochs", len(recs), len(applied))
}

// logShares reports which methods the planner resolved the Auto queries
// to between two Stats snapshots, with their mean search time.
func (b *serveBench) logShares(s0, s1 rnknn.Stats) {
	line := "planner:"
	for _, m := range serveMethods {
		m0, m1 := s0.Methods[m.String()], s1.Methods[m.String()]
		n := m1.KNNQueries - m0.KNNQueries
		line += fmt.Sprintf(" %s=%d (mean %.1fus)", m, n, frac(float64(m1.TotalLatency-m0.TotalLatency), float64(n+m1.RangeQueries-m0.RangeQueries))/1e3)
	}
	b.r.logf("%s", line)
}
