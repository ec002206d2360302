package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"rnknn/internal/dijkstra"
	"rnknn/internal/gen"
	"rnknn/internal/graph"
	"rnknn/internal/knn"
	"rnknn/internal/monitor"
	"rnknn/pkg/rnknn"
)

// hotspot is spatially clustered traffic on E (4x NW): batches packed into
// hot cells and continuous monitors walking out of them under object
// churn. The batch grouping planner, the multi-source Dijkstra, the G-tree
// group source and the monitor's safe region do their work here and
// nowhere else; the 64-wide multi-source frontier far exceeds L2, unlike
// knn-grid's per-session arrays.

const (
	hotK         = 10
	hotCellCount = 32
	hotCellSpan  = 64
	hotSetups    = 7
	hotMinBatch  = 100 // batches per pass, so batch p90 has ten beyond it
	hotMinRoutes = 10
	hotRouteLen  = 512
	// hotChurnEvery is the route steps between the consuming loop's object
	// mutations, each of which forces an epoch refresh.
	hotChurnEvery = 64
	// One batch in hotBatchCheckOneIn has every member checked against a
	// solo KNN.
	hotBatchCheckOneIn = 10
	// hotReplicas is the number of independent object sets drawn per
	// category; batches and routes rotate over them, so a run does not
	// hang on one draw of a few dozen objects.
	hotReplicas = 4
)

func hotSparse(rep int) string { return fmt.Sprintf("sparse.r%d", rep) }
func hotMon(rep int) string    { return fmt.Sprintf("mon.r%d", rep) }

// hotBatchMix is the batch size mix 8:2, 32:1, 64:1.
var hotBatchMix = []int{8, 8, 32, 64}

type hotBench struct {
	r     *run
	g     *graph.Graph
	db    *rnknn.DB
	cells [][]int32
	// mon is the live object set of each monitor category replica, and
	// muts the number of mutations each has taken.
	mon   []map[int32]bool
	muts  []int
	fresh []int32
}

func runHotspot(r *run) error {
	dir := filepath.Join(r.outDir, "hotspot")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	snap := filepath.Join(dir, "e.rnks")
	defer os.Remove(snap)
	spec, ok := gen.LadderSpec("E")
	if !ok {
		return fmt.Errorf("no ladder network E")
	}
	// Preparation, not timed: build the INE + G-tree snapshot.
	pdb, err := rnknn.Open(gen.Network(spec), rnknn.WithMethods(rnknn.INE, rnknn.Gtree))
	if err != nil {
		return err
	}
	if err := pdb.SaveIndexesFile(snap); err != nil {
		return err
	}
	runtime.GC()

	h := &hotBench{r: r}
	setups := hotSetups
	if r.traced {
		setups = 1
	}
	var times []time.Duration
	for i := 0; i < setups; i++ {
		h.db = nil
		d, err := h.setup(spec, snap)
		if err != nil {
			return err
		}
		times = append(times, d)
	}
	r.m["setup_s"] = medianSeconds(times)
	r.logf("setup: median %.4fs over %d (graph %.4fs, open %.4fs, register %.4fs)", r.m["setup_s"], len(times),
		r.m["setup.graph_s"], r.m["setup.open_s"], r.m["setup.register_s"])
	for name, ix := range h.db.Stats().Indexes {
		r.m["build."+name+".s"] = ix.BuildTime.Seconds()
		r.m["index."+name+".mb"] = float64(ix.SizeBytes) / (1 << 20)
	}

	rng := rand.New(rand.NewSource(r.seed*131 + 3))
	batchBudget := r.seconds * 11 / 20
	monBudget := r.seconds * 9 / 20
	bs := h.batchPhase(rand.New(rand.NewSource(rng.Int63())), batchBudget, nil)
	ms := h.monitorPhase(rand.New(rand.NewSource(rng.Int63())), monBudget, nil)
	r.m["mem_mb"] = rssMB()
	perMember := bs.perMember.sorted()
	r.m["p50_us"], r.m["tail_us"] = us(median(perMember)), us(pct(perMember, 0.9))
	r.m["qps"] = frac(float64(bs.members), float64(bs.wall)/1e9)
	r.m["aux_p50_us"] = medianFloat(ms.routeStepUS)
	r.logf("batch_query_p50_us=%.2f batch_query_p90_us=%.2f (batches=%d, members=%d) [%s]", r.m["p50_us"], r.m["tail_us"],
		len(bs.perMember), bs.members, summary(bs.perMember))
	r.logf("batch member qps=%.1f (members=%d over %.3fs of Batch.Run)", r.m["qps"], bs.members, float64(bs.wall)/1e9)
	r.logf("monitor_step_us=%.3f (median over routes=%d of route wall / steps) monitor_step_p99_us=%.2f (steps=%d) [%s]", r.m["aux_p50_us"],
		len(ms.routeStepUS), us(pct(ms.steps.sorted(), 0.99)), len(ms.steps), summary(ms.steps))
	r.logf("churn writes: %s", summary(ms.writes))
	r.logf("failed_frac=%.6f (failed=%d attempted=%d)", frac(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	if !r.traced {
		return nil
	}
	return h.traced(rng, batchBudget, monBudget, bs)
}

// setup generates E, opens it from the snapshot with the verified streaming
// decode and registers the categories: the timed set-up.
func (h *hotBench) setup(spec gen.NetworkSpec, snap string) (time.Duration, error) {
	start := time.Now()
	g := gen.Network(spec)
	h.r.m["setup.graph_s"] = time.Since(start).Seconds()
	t := time.Now()
	f, err := os.Open(snap)
	if err != nil {
		return 0, err
	}
	db, err := rnknn.OpenFromSnapshot(g, f, rnknn.WithMethods(rnknn.INE, rnknn.Gtree))
	f.Close()
	if err != nil {
		return 0, err
	}
	h.r.m["setup.open_s"] = time.Since(t).Seconds()
	t = time.Now()
	rng := rand.New(rand.NewSource(objectSeed*17 + 5))
	var monObjs [][]int32
	for rep := 0; rep < hotReplicas; rep++ {
		if err := db.RegisterObjects(hotSparse(rep), gen.Uniform(g, 0.001, rng.Int63())); err != nil {
			return 0, err
		}
		objs := gen.Uniform(g, 0.0005, rng.Int63())
		if err := db.RegisterObjects(hotMon(rep), objs); err != nil {
			return 0, err
		}
		monObjs = append(monObjs, objs)
	}
	h.r.m["setup.register_s"] = time.Since(t).Seconds()
	d := time.Since(start)
	h.g, h.db = g, db
	h.cells = hotCells(g.NumVertices(), hotCellCount, hotCellSpan, rng)
	taken := map[int32]bool{}
	h.mon, h.muts = nil, make([]int, hotReplicas)
	for _, objs := range monObjs {
		live := map[int32]bool{}
		for _, v := range objs {
			live[v], taken[v] = true, true
		}
		h.mon = append(h.mon, live)
	}
	h.fresh = h.fresh[:0]
	for _, v := range rng.Perm(g.NumVertices()) {
		if !taken[int32(v)] {
			h.fresh = append(h.fresh, int32(v))
		}
	}
	return d, nil
}

// batchStats is one batch pass.
type batchStats struct {
	perMember samples // Batch.Run wall / members, one per batch
	members   int
	wall      int64
	// Traced pass only: Explain times, and the same batches' walls under
	// each sharing mode, per method.
	explain                   samples
	autoWall, onWall, offWall map[rnknn.Method]int64
}

// batchPhase runs clustered batches until budget has elapsed and at least
// hotMinBatch have run: each packs a size from the mix into one hot cell,
// methods alternate INE and G-tree, and sharing is left to the planner.
// Batches rotate through the sizes, the methods and the cells in a fixed
// order, so every run covers the same mix; the seed draws the members.
func (h *hotBench) batchPhase(rng *rand.Rand, budget time.Duration, tr *tracer) batchStats {
	r := h.r
	ctx := context.Background()
	bs := batchStats{autoWall: map[rnknn.Method]int64{}, onWall: map[rnknn.Method]int64{}, offWall: map[rnknn.Method]int64{}}
	start := time.Now()
	for n := 0; n < hotMinBatch || time.Since(start) < budget; n++ {
		size := hotBatchMix[n%len(hotBatchMix)]
		m := rnknn.INE
		if (n/len(hotBatchMix))%2 == 1 {
			m = rnknn.Gtree
		}
		ci := (n / (2 * len(hotBatchMix))) % len(h.cells)
		cell, cat := h.cells[ci], hotSparse(ci%hotReplicas)
		b := h.db.Batch()
		qs := make([]int32, size)
		for i := range qs {
			qs[i] = cell[rng.Intn(len(cell))]
			b.AddKNN(qs[i], hotK, rnknn.WithMethod(m), rnknn.WithCategory(cat))
		}
		check := rng.Intn(hotBatchCheckOneIn) == 0
		var root int64
		if tr != nil {
			t0 := time.Now()
			b.Explain()
			t1 := time.Now()
			bs.explain = append(bs.explain, int64(t1.Sub(t0)))
			root = tr.add(span{Req: int64(n), Name: "batch", Start: tr.at(t0), Tag: m.String()})
			tr.add(span{Parent: root, Req: int64(n), Name: "explain", Start: tr.at(t0), End: tr.at(t1)})
		}
		t0 := time.Now()
		res, err := b.Run(ctx)
		t1 := time.Now()
		wall := int64(t1.Sub(t0))
		r.attempted += int64(size)
		if err != nil {
			r.failed += int64(size)
			continue
		}
		if tr != nil {
			tr.add(span{Parent: root, Req: int64(n), Name: "run", Start: tr.at(t0), End: tr.at(t1), Tag: m.String()})
			tr.spans[root-1].End = tr.at(t1)
		}
		bs.perMember = append(bs.perMember, wall/int64(size))
		bs.members += size
		bs.wall += wall
		for i, br := range res {
			if br.Err != nil {
				r.failed++
				continue
			}
			if check {
				solo, err := h.db.KNN(ctx, qs[i], hotK, rnknn.WithMethod(m), rnknn.WithCategory(cat))
				if err != nil || !rnknn.SameResults(br.Results, solo) {
					r.mismatch("batch %s q=%d: %s, solo %s (%v)", m, qs[i], rnknn.FormatResults(br.Results), rnknn.FormatResults(solo), err)
				}
			}
		}
		if tr == nil {
			continue
		}
		// The same batch under each forced sharing mode, for the planner's
		// regret and the speedup sharing buys.
		bs.autoWall[m] += wall
		for _, mode := range []rnknn.SharedMode{rnknn.SharedOn, rnknn.SharedOff} {
			t0 := time.Now()
			alt, err := b.SharedExpansion(mode).Run(ctx)
			d := int64(time.Since(t0))
			if err != nil {
				r.failed += int64(size)
				continue
			}
			if mode == rnknn.SharedOn {
				bs.onWall[m] += d
			} else {
				bs.offWall[m] += d
			}
			for i := range alt {
				if alt[i].Err != nil || !rnknn.SameResults(alt[i].Results, res[i].Results) {
					r.mismatch("batch %s mode %d q=%d disagrees with the planner's mode", m, mode, qs[i])
				}
			}
		}
	}
	return bs
}

// monitorStats is one monitor pass.
type monitorStats struct {
	// steps holds the time between consecutive Monitor yields, excluding
	// the consuming loop's own work; check and refresh split it by whether
	// the step re-ran the search.
	steps, check, refresh samples
	// routeStepUS is each route's wall time, excluding the consuming loop,
	// over its steps.
	routeStepUS []float64
	writes      samples
}

// monitorPhase walks 512-step edge routes out of the hot cells, taken in
// turn, with a G-tree monitor on a mon category until budget has elapsed,
// inserting or removing one object every hotChurnEvery steps. The routes
// are fixed walks, like the cells and objects (see objectSeed): about half
// of a walk's steps re-run the search and a run fits only ~20 routes, so
// walks redrawn per seed moved monitor_step_us by 20% between seeds. Each update's events
// are replayed and checked against brute force at sampled steps.
func (h *hotBench) monitorPhase(rng *rand.Rand, budget time.Duration, tr *tracer) monitorStats {
	r := h.r
	ctx := context.Background()
	var ms monitorStats
	solver := dijkstra.NewSolver(h.g)
	start := time.Now()
	for n := 0; n < hotMinRoutes || time.Since(start) < budget; n++ {
		rep := n % hotReplicas
		var objs *knn.ObjectSet
		cell := h.cells[n%len(h.cells)]
		walk := rand.New(rand.NewSource(objectSeed*1009 + int64(n)))
		route := h.walk(cell[walk.Intn(len(cell))], walk)
		checkAt := rng.Intn(len(route))
		state := map[int32]graph.Dist{}
		var root int64
		if tr != nil {
			root = tr.add(span{Req: int64(n), Name: "route", Start: tr.at(time.Now())})
		}
		routeNs, steps := int64(0), 0
		resume := time.Now()
		for u, err := range h.db.Monitor(ctx, route, hotK, rnknn.WithMethod(rnknn.Gtree), rnknn.WithCategory(hotMon(rep))) {
			yield := time.Now()
			r.attempted++
			if err != nil {
				r.failed++
				r.logf("monitor: %v", err)
				break
			}
			d := int64(yield.Sub(resume))
			routeNs += d
			steps++
			ms.steps = append(ms.steps, d)
			if u.Refresh == rnknn.MonitorRefreshNone {
				ms.check = append(ms.check, d)
			} else {
				ms.refresh = append(ms.refresh, d)
			}
			if tr != nil {
				tr.add(span{Parent: root, Req: int64(n), Name: "step", Start: tr.at(resume), End: tr.at(yield), Tag: u.Refresh.String()})
			}
			if err := monitor.Apply(state, u.Events); err != nil {
				r.mismatch("monitor route %d step %d: %v", n, u.Step, err)
			}
			if u.Step == checkAt || u.Step == len(route)-1 {
				if objs == nil {
					objs = h.monObjects(rep)
				}
				h.checkMonitor(solver, objs, u, state)
			}
			if (u.Step+1)%hotChurnEvery == 0 && u.Step+1 < len(route) {
				t0 := time.Now()
				h.churn(rep)
				t1 := time.Now()
				objs = nil
				ms.writes = append(ms.writes, int64(t1.Sub(t0)))
				if tr != nil {
					tr.add(span{Parent: root, Req: int64(n), Name: "write", Start: tr.at(t0), End: tr.at(t1)})
				}
			}
			resume = time.Now()
		}
		if tr != nil {
			tr.spans[root-1].End = tr.at(time.Now())
		}
		if steps > 0 {
			ms.routeStepUS = append(ms.routeStepUS, float64(routeNs)/float64(steps)/1e3)
		}
	}
	return ms
}

// walk returns a hotRouteLen-vertex edge walk from v that avoids stepping
// straight back where it can.
func (h *hotBench) walk(v int32, rng *rand.Rand) []int32 {
	route := []int32{v}
	prev := int32(-1)
	for len(route) < hotRouteLen {
		nbrs, _ := h.g.Neighbors(v)
		next := nbrs[rng.Intn(len(nbrs))]
		if next == prev && len(nbrs) > 1 {
			next = nbrs[rng.Intn(len(nbrs))]
		}
		prev, v = v, next
		route = append(route, v)
	}
	return route
}

// churn inserts a fresh object into a monitor category replica or removes
// the one inserted before, alternately.
func (h *hotBench) churn(rep int) {
	n := h.muts[rep]
	// Each replica draws its fresh vertices from its own stride of the pool.
	v := h.fresh[(n/2)*hotReplicas+rep]
	var err error
	if n%2 == 0 {
		err = h.db.InsertObjects(hotMon(rep), []int32{v})
	} else {
		err = h.db.RemoveObjects(hotMon(rep), []int32{v})
	}
	h.r.attempted++
	if err != nil {
		h.r.failed++
		return
	}
	h.mon[rep][v] = n%2 == 0
	h.muts[rep]++
}

func (h *hotBench) monObjects(rep int) *knn.ObjectSet {
	var vs []int32
	for v, in := range h.mon[rep] {
		if in {
			vs = append(vs, v)
		}
	}
	return knn.NewObjectSet(h.g, vs)
}

// checkMonitor checks the replayed result set at one step: its members'
// exact distances must be the k smallest object distances brute force
// finds (membership is exact at every step; ties may pick either object).
func (h *hotBench) checkMonitor(solver *dijkstra.Solver, objs *knn.ObjectSet, u rnknn.MonitorUpdate, state map[int32]graph.Dist) {
	members := make([]int32, 0, len(state))
	for v := range state {
		members = append(members, v)
	}
	got := solver.DistancesTo(u.Vertex, members)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	want := knn.BruteForce(h.g, objs, u.Vertex, hotK)
	h.r.attempted++
	ok := len(got) == len(want)
	for i := 0; ok && i < len(got); i++ {
		ok = got[i] == want[i].Dist
	}
	if !ok {
		h.r.mismatch("monitor step %d at %d: member distances %v, brute force %s", u.Step, u.Vertex, got, knn.FormatResults(want))
	}
}

// traced re-runs both phases with spans, Explain timing and the forced
// sharing modes, and reports the batch and monitor layers' metrics.
func (h *hotBench) traced(rng *rand.Rand, batchBudget, monBudget time.Duration, base batchStats) error {
	r := h.r
	tr := newTracer(time.Now(), 1<<20)
	db0 := h.db.Stats()
	bs := h.batchPhase(rand.New(rand.NewSource(rng.Int63())), batchBudget, tr)
	db1 := h.db.Stats()
	ms := h.monitorPhase(rand.New(rand.NewSource(rng.Int63())), monBudget, tr)
	db2 := h.db.Stats()

	r.m["trace.overhead_frac"] = float64(median(bs.perMember.sorted()))/float64(median(base.perMember.sorted())) - 1
	r.m["batch.explain_us"] = us(median(bs.explain.sorted()))
	b0, b1 := db0.Batch, db1.Batch
	shared, fanout := float64(b1.SharedQueries-b0.SharedQueries), float64(b1.FanoutQueries-b0.FanoutQueries)
	r.m["batch.shared_frac"] = frac(shared, shared+fanout)
	r.m["batch.mean_group_size"] = frac(shared, float64(b1.SharedGroups-b0.SharedGroups))
	var auto, best float64
	for _, m := range []rnknn.Method{rnknn.INE, rnknn.Gtree} {
		r.m["batch.share_speedup."+m.String()] = frac(float64(bs.offWall[m]), float64(bs.onWall[m]))
		auto += float64(bs.autoWall[m])
		best += float64(min(bs.onWall[m], bs.offWall[m]))
	}
	r.m["planner.batch_regret"] = frac(auto, best)
	m1, m2 := db1.Monitor, db2.Monitor
	r.m["monitor.avoided_frac"] = frac(float64(m2.Avoided-m1.Avoided), float64(m2.Steps-m1.Steps))
	r.m["monitor.check_p50_ns"] = float64(median(ms.check.sorted()))
	r.m["monitor.refresh_p50_us"] = us(median(ms.refresh.sorted()))
	r.m["monitor.refresh.initial"] = float64(m2.Initial - m1.Initial)
	r.m["monitor.refresh.drift"] = float64(m2.Drift - m1.Drift)
	r.m["monitor.refresh.epoch"] = float64(m2.Epoch - m1.Epoch)
	r.m["monitor.refresh.jump"] = float64(m2.Jump - m1.Jump)
	r.m["churn.write_p50_us"] = us(median(ms.writes.sorted()))
	lines, err := tr.write(r.outDir, fmt.Sprintf("hotspot-seed%d", r.seed))
	for _, l := range lines {
		r.logf("%s", l)
	}
	return err
}
