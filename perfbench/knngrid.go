package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"rnknn/internal/core"
	"rnknn/internal/gen"
	"rnknn/internal/graph"
	"rnknn/internal/gtree"
	"rnknn/internal/ier"
	"rnknn/internal/ine"
	"rnknn/internal/knn"
	"rnknn/pkg/rnknn"
)

// knn-grid is the paper's own experiment (Figs 9-11, Table 5): in process,
// closed loop, one goroutine, every method over a k x density grid on two
// network sizes. Search, oracle and kernel layers do nearly all the work;
// serving, caching, batching and monitoring do none. The per-session
// distance and stamp arrays fit L1d on VT and L2 on NW.

type gridRung struct {
	name    string
	methods []rnknn.Method
}

var (
	// SILC builds within budget only on VT, so NW runs the 8 other methods.
	gridRungs = []gridRung{
		{"VT", rnknn.Methods()},
		{"NW", rnknn.Methods()[:rnknn.DisBrw]},
	}
	gridKs = []int{1, 10, 50}
	// VT at 0.001 holds ~3 objects, so k > |O| is in the grid on purpose.
	gridDensities = []float64{0.001, 0.01, 0.1}
)

const (
	gridQueries = 200 // distinct query vertices per (rung, k, density)
	gridBlock   = 25  // queries a cell runs back to back in one round
	// gridMinRounds gives every cell 200 timed queries, so its p95 has ten
	// samples beyond it.
	gridMinRounds   = 8
	gridSetups      = 3
	gridBruteChecks = 12 // INE answers per group checked against brute force
	// gridReplicas is the number of independent object sets drawn per
	// (rung, density); a group's queries rotate over them, so a cell's
	// median does not hang on where one draw of ~3 objects landed.
	gridReplicas  = 4
	gridOracleQs  = 50 // queries per group in the traced oracle pass
	gridExplainQs = 50 // queries per group timed through Explain
)

// gridGroup is one (rung, k, density) point: its query vertices and their
// reference answers.
type gridGroup struct {
	rung, k, di int
	// cats are the group's object categories; query qi searches
	// cats[qi%gridReplicas].
	cats    []string
	queries []int32
	ref     [][]rnknn.Result
}

func (grp *gridGroup) cat(qi int) string { return grp.cats[qi%gridReplicas] }

// gridCell is one method (or the Auto column) at one group.
type gridCell struct {
	grp    *gridGroup
	method rnknn.Method
	lat    samples
	// bare holds the traced pass's re-runs of the same queries on a method
	// built directly from the engine, bypassing the facade.
	bare samples
}

type gridState struct {
	graphs                   []*graph.Graph
	dbs                      []*rnknn.DB
	objs                     [][][][]int32 // [rung][density][replica] object vertices
	groups                   []*gridGroup
	graphT, openT, registerT time.Duration
}

func densityCat(d float64, rep int) string { return fmt.Sprintf("d%g.r%d", d, rep) }

// setupGrid generates both networks, cold-opens a DB on each (building
// every index the rung's methods need) and registers the object categories.
func setupGrid() (*gridState, time.Duration, error) {
	st := &gridState{}
	start := time.Now()
	for ri, rg := range gridRungs {
		t := time.Now()
		spec, ok := gen.LadderSpec(rg.name)
		if !ok {
			return nil, 0, fmt.Errorf("no ladder network %s", rg.name)
		}
		g := gen.Network(spec)
		st.graphT += time.Since(t)
		t = time.Now()
		db, err := rnknn.Open(g, rnknn.WithMethods(rg.methods...))
		if err != nil {
			return nil, 0, fmt.Errorf("open %s: %w", rg.name, err)
		}
		st.openT += time.Since(t)
		t = time.Now()
		var objs [][][]int32
		for di, d := range gridDensities {
			var reps [][]int32
			for rep := 0; rep < gridReplicas; rep++ {
				o := gen.Uniform(g, d, objectSeed*7919+int64(100*ri+10*di+rep))
				if err := db.RegisterObjects(densityCat(d, rep), o); err != nil {
					return nil, 0, err
				}
				reps = append(reps, o)
			}
			objs = append(objs, reps)
		}
		st.registerT += time.Since(t)
		st.graphs = append(st.graphs, g)
		st.dbs = append(st.dbs, db)
		st.objs = append(st.objs, objs)
	}
	return st, time.Since(start), nil
}

func (st *gridState) close() {
	for _, db := range st.dbs {
		_ = db.Close()
	}
}

// makeGroups draws each group's query vertices from the seed and computes
// the reference answers with INE, checking a seeded sample of them against
// brute force. All of it runs outside the timed window.
func (st *gridState) makeGroups(r *run) error {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(r.seed))
	for ri := range gridRungs {
		for _, k := range gridKs {
			for di, d := range gridDensities {
				grp := &gridGroup{rung: ri, k: k, di: di, queries: gen.QueryVertices(st.graphs[ri], gridQueries, rng.Int63())}
				for rep := 0; rep < gridReplicas; rep++ {
					grp.cats = append(grp.cats, densityCat(d, rep))
				}
				db := st.dbs[ri]
				for qi, q := range grp.queries {
					res, err := db.KNN(ctx, q, k, rnknn.WithMethod(rnknn.INE), rnknn.WithCategory(grp.cat(qi)))
					if err != nil {
						return err
					}
					grp.ref = append(grp.ref, res)
				}
				for _, qi := range rng.Perm(gridQueries)[:gridBruteChecks] {
					bf, err := db.BruteForceKNN(grp.queries[qi], k, rnknn.WithCategory(grp.cat(qi)))
					if err != nil {
						return err
					}
					r.attempted++
					if !rnknn.SameResults(grp.ref[qi], bf) {
						r.mismatch("%s INE q=%d k=%d %s: %s, brute force %s", gridRungs[ri].name, grp.queries[qi], k, grp.cat(qi),
							rnknn.FormatResults(grp.ref[qi]), rnknn.FormatResults(bf))
					}
				}
				st.groups = append(st.groups, grp)
			}
		}
	}
	return nil
}

// cells lays out the grid: every concrete method of the rung at every group,
// then the Auto column.
func (st *gridState) cells() (concrete, auto []*gridCell) {
	for _, grp := range st.groups {
		for _, m := range gridRungs[grp.rung].methods {
			concrete = append(concrete, &gridCell{grp: grp, method: m, lat: newSamples(2 * gridMinRounds * gridBlock)})
		}
		auto = append(auto, &gridCell{grp: grp, method: rnknn.MethodAuto, lat: newSamples(2 * gridMinRounds * gridBlock)})
	}
	return concrete, auto
}

// bareMethods are methods built directly with core.Engine.NewMethod over
// engines loaded from each rung's own indexes, for the traced re-runs.
type bareMethods map[*gridGroup][]map[rnknn.Method]knn.Method // [group][replica][method]

// gridPass runs rounds over the cells until each has minRounds blocks and
// budget has elapsed. Each query is timed alone and compared with its
// reference outside the timed call. With tr set, every query records a
// span and is re-run on its bare method; work counts accumulate in w.
func (st *gridState) gridPass(r *run, cells []*gridCell, minRounds int, budget time.Duration, tr *tracer, bare bareMethods, w *workCounts) {
	ctx := context.Background()
	buf := make([]rnknn.Result, 0, 64)
	var bbuf []knn.Result
	start := time.Now()
	req := int64(0)
	for round := 0; round < minRounds || time.Since(start) < budget; round++ {
		for _, c := range cells {
			grp := c.grp
			db := st.dbs[grp.rung]
			var opts [gridReplicas][]rnknn.QueryOption
			for rep := range opts {
				opts[rep] = []rnknn.QueryOption{rnknn.WithMethod(c.method), rnknn.WithCategory(grp.cats[rep])}
			}
			for j := 0; j < gridBlock; j++ {
				qi := (round*gridBlock + j) % len(grp.queries)
				q := grp.queries[qi]
				var bm knn.Method
				if tr != nil {
					req++
					if c.method != rnknn.MethodAuto {
						bm = bare[grp][qi%gridReplicas][c.method]
					}
				}
				// The bare re-run goes first on every other query, so neither
				// side always finds the caches warmed by the other.
				if bm != nil && j%2 == 1 {
					bbuf = bareRun(r, tr, c, bm, qi, req, bbuf, w)
				}
				t0 := time.Now()
				var err error
				buf, err = db.KNNAppend(ctx, q, grp.k, buf[:0], opts[qi%gridReplicas]...)
				t1 := time.Now()
				r.attempted++
				if err != nil {
					r.failed++
					continue
				}
				c.lat = append(c.lat, int64(t1.Sub(t0)))
				if !rnknn.SameResults(buf, grp.ref[qi]) {
					r.mismatch("%s %s q=%d k=%d %s: %s, INE %s", gridRungs[grp.rung].name, c.method, q, grp.k, grp.cat(qi),
						rnknn.FormatResults(buf), rnknn.FormatResults(grp.ref[qi]))
				}
				if tr != nil {
					tr.add(span{Req: req, Name: "query", Start: tr.at(t0), End: tr.at(t1), Tag: c.method.String()})
				}
				if bm != nil && j%2 == 0 {
					bbuf = bareRun(r, tr, c, bm, qi, req, bbuf, w)
				}
			}
		}
	}
}

// bareRun re-runs query qi of c on its bare method, records a "method"
// span and the work counters, and checks the answer.
func bareRun(r *run, tr *tracer, c *gridCell, bm knn.Method, qi int, req int64, buf []knn.Result, w *workCounts) []knn.Result {
	grp := c.grp
	t0 := time.Now()
	buf = bm.KNNAppend(grp.queries[qi], grp.k, buf[:0])
	t1 := time.Now()
	c.bare = append(c.bare, int64(t1.Sub(t0)))
	tr.add(span{Req: req, Name: "method", Start: tr.at(t0), End: tr.at(t1), Tag: c.method.String()})
	if !knn.SameResults(buf, grp.ref[qi]) {
		r.mismatch("bare %s q=%d k=%d %s: %s, INE %s", c.method, grp.queries[qi], grp.k, grp.cat(qi),
			rnknn.FormatResults(buf), rnknn.FormatResults(grp.ref[qi]))
	}
	w.note(c.method.String(), bm)
	return buf
}

// workCounts sums the paper's work units per method over the traced
// re-runs: vertices settled by INE, oracle calls and evictions by IER.
type workCounts struct {
	queries, settled, oracleCalls, evictions map[string]int64
}

func newWorkCounts() *workCounts {
	return &workCounts{map[string]int64{}, map[string]int64{}, map[string]int64{}, map[string]int64{}}
}

func (w *workCounts) note(name string, m knn.Method) {
	switch x := m.(type) {
	case *ine.INE:
		w.queries[name]++
		w.settled[name] += int64(x.VisitedVertices)
	case *ier.IER:
		w.queries[name]++
		w.oracleCalls[name] += int64(x.OracleCalls)
		w.evictions[name] += int64(x.Evictions)
	}
}

// gridSummary is one pass's view of the grid.
type gridSummary struct {
	p50gm, p95gm, qps        float64
	autoP50gm, autoP95gm     float64
	cellMedian               map[*gridCell]float64 // microseconds
	concreteQueries, autoQs  int
	methodGM, methodTimeFrac map[string]float64
	autoRegret               float64
}

func summarizeGrid(concrete, auto []*gridCell) gridSummary {
	s := gridSummary{cellMedian: map[*gridCell]float64{}, methodGM: map[string]float64{}, methodTimeFrac: map[string]float64{}}
	var p50s, p95s []float64
	perMethod := map[string][]float64{}
	perMethodNs := map[string]float64{}
	totalNs := 0.0
	best := map[*gridGroup]float64{}
	for _, c := range concrete {
		sorted := c.lat.sorted()
		med, p95 := us(median(sorted)), us(pct(sorted, 0.95))
		s.cellMedian[c] = med
		p50s, p95s = append(p50s, med), append(p95s, p95)
		name := c.method.String()
		perMethod[name] = append(perMethod[name], med)
		for _, ns := range c.lat {
			perMethodNs[name] += float64(ns)
			totalNs += float64(ns)
		}
		s.concreteQueries += len(c.lat)
		if b, ok := best[c.grp]; !ok || med < b {
			best[c.grp] = med
		}
	}
	s.p50gm, s.p95gm = geomean(p50s), geomean(p95s)
	s.qps = frac(float64(s.concreteQueries), totalNs/1e9)
	for name, v := range perMethod {
		s.methodGM[name] = geomean(v)
		s.methodTimeFrac[name] = perMethodNs[name] / totalNs
	}
	var a50, a95, regret []float64
	for _, c := range auto {
		sorted := c.lat.sorted()
		med := us(median(sorted))
		s.cellMedian[c] = med
		a50, a95 = append(a50, med), append(a95, us(pct(sorted, 0.95)))
		regret = append(regret, med/best[c.grp])
		s.autoQs += len(c.lat)
	}
	s.autoP50gm, s.autoP95gm, s.autoRegret = geomean(a50), geomean(a95), geomean(regret)
	return s
}

func runKNNGrid(r *run) error {
	setups := gridSetups
	if r.traced {
		setups = 1
	}
	var st *gridState
	var times []time.Duration
	for i := 0; i < setups; i++ {
		if st != nil {
			st.close()
			st = nil
		}
		var d time.Duration
		var err error
		st, d, err = setupGrid()
		if err != nil {
			return err
		}
		times = append(times, d)
		r.logf("setup %d: %.3fs (graph %.3fs, open %.3fs, register %.3fs)", i+1, d.Seconds(),
			st.graphT.Seconds(), st.openT.Seconds(), st.registerT.Seconds())
	}
	defer st.close()
	r.m["setup_s"] = medianSeconds(times)
	r.m["setup.graph_s"] = st.graphT.Seconds()
	r.m["setup.open_s"] = st.openT.Seconds()
	r.m["setup.register_s"] = st.registerT.Seconds()
	for _, db := range st.dbs {
		for name, ix := range db.Stats().Indexes {
			r.m["build."+name+".s"] += ix.BuildTime.Seconds()
			r.m["index."+name+".mb"] += float64(ix.SizeBytes) / (1 << 20)
		}
	}
	if err := st.makeGroups(r); err != nil {
		return err
	}

	concrete, auto := st.cells()
	all := append(append([]*gridCell(nil), concrete...), auto...)
	st.gridPass(r, all, gridMinRounds, r.seconds, nil, nil, nil)
	base := summarizeGrid(concrete, auto)
	r.m["mem_mb"] = rssMB()
	r.m["p50_us"], r.m["tail_us"], r.m["qps"] = base.p50gm, base.p95gm, base.qps
	r.m["aux_p50_us"] = base.autoP50gm
	r.logf("knn_p50_us_gm=%.3f knn_p95_us_gm=%.3f (cells=%d, queries=%d)", base.p50gm, base.p95gm, len(concrete), base.concreteQueries)
	r.logf("knn_qps=%.1f (queries=%d)", base.qps, base.concreteQueries)
	r.logf("auto_p50_us_gm=%.3f auto_p95_us_gm=%.3f (cells=%d, queries=%d)", base.autoP50gm, base.autoP95gm, len(auto), base.autoQs)
	r.logf("failed_frac=%.6f (failed=%d attempted=%d)", frac(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	paperVerdict(r, concrete, base)
	for _, name := range methodNames {
		r.m["method."+name+".p50_us_gm"] = base.methodGM[name]
		r.m["method."+name+".time_frac"] = base.methodTimeFrac[name]
	}
	r.m["planner.auto_regret"] = base.autoRegret
	if !r.traced {
		return nil
	}
	return st.tracedGrid(r, concrete, auto, base)
}

// tracedGrid is the traced run's extra work: a traced pass with bare-method
// re-runs, an oracle-timing pass over the IER methods, and Explain timing.
func (st *gridState) tracedGrid(r *run, concrete, auto []*gridCell, base gridSummary) error {
	bare := bareMethods{}
	engines := make([]*core.Engine, len(st.dbs))
	for ri, db := range st.dbs {
		var b bytes.Buffer
		if err := db.SaveIndexes(&b); err != nil {
			return err
		}
		eng := core.New(st.graphs[ri])
		if err := eng.LoadIndexes(&b); err != nil {
			return err
		}
		engines[ri] = eng
	}
	for _, grp := range st.groups {
		for rep := 0; rep < gridReplicas; rep++ {
			objs := knn.NewObjectSet(st.graphs[grp.rung], st.objs[grp.rung][grp.di][rep])
			ms := map[rnknn.Method]knn.Method{}
			for _, m := range gridRungs[grp.rung].methods {
				bm, err := engines[grp.rung].NewMethod(core.MethodKind(m), objs)
				if err != nil {
					return err
				}
				ms[m] = bm
			}
			bare[grp] = append(bare[grp], ms)
		}
	}
	for _, c := range append(append([]*gridCell(nil), concrete...), auto...) {
		c.lat = c.lat[:0]
	}
	tr := newTracer(time.Now(), 2*len(concrete)*gridMinRounds*gridBlock+len(auto)*gridMinRounds*gridBlock)
	w := newWorkCounts()
	st.gridPass(r, append(append([]*gridCell(nil), concrete...), auto...), gridMinRounds, 0, tr, bare, w)
	traced := summarizeGrid(concrete, auto)
	r.m["trace.overhead_frac"] = traced.p50gm/base.p50gm - 1
	var overhead []float64
	for _, c := range concrete {
		overhead = append(overhead, float64(median(c.lat.sorted())-median(c.bare.sorted())))
	}
	r.m["facade.overhead_ns"] = medianFloat(overhead)
	for name, n := range w.queries {
		if name == "INE" {
			r.m["work.INE.settled"] = float64(w.settled[name]) / float64(n)
			continue
		}
		r.m["work."+name+".oracle_calls"] = float64(w.oracleCalls[name]) / float64(n)
		r.m["work."+name+".evictions"] = float64(w.evictions[name]) / float64(n)
	}
	st.oraclePass(r, engines, tr)
	st.explainPass(r)
	lines, err := tr.write(r.outDir, fmt.Sprintf("knn-grid-seed%d", r.seed))
	for _, l := range lines {
		r.logf("%s", l)
	}
	return err
}

// timedFactory wraps an IER oracle factory and times every call into it:
// assembling a per-source oracle (G-tree assembly, Dijkstra reset) and
// every DistanceTo. The clock's own cost is subtracted per timed call.
type timedFactory struct {
	inner knn.SourceFactory
	clock time.Duration
	src   timedSource
}

type timedSource struct {
	f     *timedFactory
	inner knn.SourceOracle
	calls int64
	ns    int64
}

func (f *timedFactory) Name() string { return f.inner.Name() }

func (f *timedFactory) NewSource(s int32) knn.SourceOracle {
	t := time.Now()
	f.src.inner = f.inner.NewSource(s)
	f.src.ns += int64(time.Since(t) - f.clock)
	f.src.f = f
	return &f.src
}

func (s *timedSource) DistanceTo(t int32) graph.Dist {
	t0 := time.Now()
	d := s.inner.DistanceTo(t)
	s.ns += int64(time.Since(t0) - s.f.clock)
	s.calls++
	return d
}

// oraclePass re-runs the IER methods with timed oracles on the first
// queries of each group: per query, an "ier" span and a child "oracle" span
// aggregating that query's oracle calls and time.
func (st *gridState) oraclePass(r *run, engines []*core.Engine, tr *tracer) {
	clock := clockCost()
	calls, ns := map[string]int64{}, map[string]int64{}
	var buf []knn.Result
	req := int64(1 << 40)
	for _, grp := range st.groups {
		g, eng := st.graphs[grp.rung], engines[grp.rung]
		factories := map[string]knn.SourceFactory{
			"Dijk": &ier.DijkstraFactory{G: g},
			"CH":   &ier.OracleFactory{Oracle: eng.CHIndex()},
			"TNR":  &ier.OracleFactory{Oracle: eng.TNRIndex()},
			"PHL":  &ier.OracleFactory{Oracle: eng.PHLIndex()},
			"Gt":   &gtree.Factory{Idx: eng.GtreeIndex()},
		}
		for _, oname := range oracleNames {
			tf := &timedFactory{inner: factories[oname], clock: clock}
			var reps []*ier.IER
			for rep := 0; rep < gridReplicas; rep++ {
				reps = append(reps, ier.New("IER-"+oname, g, knn.NewObjectSet(g, st.objs[grp.rung][grp.di][rep]), tf))
			}
			for qi := 0; qi < gridOracleQs; qi++ {
				m := reps[qi%gridReplicas]
				before, beforeNs := tf.src.calls, tf.src.ns
				t0 := time.Now()
				buf = m.KNNAppend(grp.queries[qi], grp.k, buf[:0])
				t1 := time.Now()
				r.attempted++
				if !knn.SameResults(buf, grp.ref[qi]) {
					r.mismatch("timed-oracle %s q=%d k=%d %s", m.Name(), grp.queries[qi], grp.k, grp.cat(qi))
				}
				req++
				id := tr.add(span{Req: req, Name: "ier", Start: tr.at(t0), End: tr.at(t1), Tag: m.Name()})
				tr.add(span{Parent: id, Req: req, Name: "oracle", Start: tr.at(t0), End: tr.at(t0) + (tf.src.ns - beforeNs),
					Tag: oname, Count: tf.src.calls - before})
			}
			calls[oname] += tf.src.calls
			ns[oname] += tf.src.ns
		}
	}
	for _, o := range oracleNames {
		r.m["oracle."+o+".ns_per_call"] = frac(float64(ns[o]), float64(calls[o]))
	}
}

// explainPass times the planner's Auto resolution through db.Explain.
func (st *gridState) explainPass(r *run) {
	lat := newSamples(len(st.groups) * gridExplainQs)
	for _, grp := range st.groups {
		db := st.dbs[grp.rung]
		for qi, q := range grp.queries[:gridExplainQs] {
			t := time.Now()
			_, err := db.Explain(q, grp.k, rnknn.WithMethod(rnknn.MethodAuto), rnknn.WithCategory(grp.cat(qi)))
			lat = append(lat, int64(time.Since(t)))
			r.attempted++
			if err != nil {
				r.failed++
			}
		}
	}
	r.m["planner.explain_ns"] = float64(median(lat.sorted()))
}

// paperVerdict reports, from the cell medians, whether the paper's regime
// findings reproduce. It is a report, not a metric or a gate.
func paperVerdict(r *run, concrete []*gridCell, s gridSummary) {
	for ri, rg := range gridRungs {
		gm := map[string][]float64{}
		byDK := map[[2]int]map[string]float64{} // (density idx, k) -> method -> median
		for _, c := range concrete {
			if c.grp.rung != ri {
				continue
			}
			name := c.method.String()
			gm[name] = append(gm[name], s.cellMedian[c])
			key := [2]int{c.grp.di, c.grp.k}
			if byDK[key] == nil {
				byDK[key] = map[string]float64{}
			}
			byDK[key][name] = s.cellMedian[c]
		}
		type ranked struct {
			name string
			v    float64
		}
		var rank []ranked
		for name, v := range gm {
			rank = append(rank, ranked{name, geomean(v)})
		}
		sort.Slice(rank, func(i, j int) bool { return rank[i].v < rank[j].v })
		var parts []string
		for _, x := range rank {
			parts = append(parts, fmt.Sprintf("%s(%.1f)", x.name, x.v))
		}
		r.logf("paper %s Table 5 ranking by geomean cell median (us): %s; IER-PHL first: %v",
			rg.name, strings.Join(parts, " "), rank[0].name == "IER-PHL")
		rankOf := func(m map[string]float64, name string) int {
			n := 1
			for other, v := range m {
				if other != name && v < m[name] {
					n++
				}
			}
			return n
		}
		for _, k := range gridKs {
			lo, hi := byDK[[2]int{0, k}], byDK[[2]int{len(gridDensities) - 1, k}]
			r.logf("paper %s Fig 11 k=%d: INE rank %d/%d at d=%g, %d/%d at d=%g (crossover: %v)", rg.name, k,
				rankOf(lo, "INE"), len(lo), gridDensities[0], rankOf(hi, "INE"), len(hi), gridDensities[len(gridDensities)-1],
				rankOf(hi, "INE") < rankOf(lo, "INE"))
		}
		for di, d := range gridDensities {
			small, large := byDK[[2]int{di, gridKs[0]}], byDK[[2]int{di, gridKs[len(gridKs)-1]}]
			r.logf("paper %s Fig 10 d=%g: Gtree rank %d/%d at k=%d, %d/%d at k=%d; Gtree/INE at k=%d: %.2f", rg.name, d,
				rankOf(small, "Gtree"), len(small), gridKs[0], rankOf(large, "Gtree"), len(large), gridKs[len(gridKs)-1],
				gridKs[len(gridKs)-1], large["Gtree"]/large["INE"])
		}
	}
}
