package rnknn

import (
	"context"
	"errors"
	"iter"
	"testing"
	"time"

	"rnknn/internal/gen"
)

// TestMethodAutoRegimes is the planner acceptance contract: on one DB,
// MethodAuto must resolve to different methods across (k, density)
// regimes — INE where objects are dense and k small (the expansion finds
// them immediately, Section 7.3), a fast-oracle method where objects are
// sparse and k large (Figures 10-11). The checked-in DefaultModel is
// fitted to one machine's measurements and may legitimately place the
// dense crossover elsewhere, so the test pins the planner to the seed
// model — the paper's regime table — explicitly.
func TestMethodAutoRegimes(t *testing.T) {
	// Large enough that a graph-wide INE scan (the sparse regime's worst
	// case) is clearly costlier than oracle-verified candidates.
	g := gen.Network(gen.NetworkSpec{Name: "auto", Rows: 64, Cols: 80, Seed: 13})
	db, err := Open(g,
		WithMethods(INE, IERPHL, Gtree),
		WithObjects("dense", gen.Uniform(g, 0.1, 3)),
		WithObjects("sparse", gen.Uniform(g, 0.003, 4)),
	)
	if err != nil {
		t.Fatal(err)
	}
	db.plan.SetModel(nil) // nil reverts to the hand-seeded paper priors

	densePlan, err := db.Explain(0, 2, WithMethod(MethodAuto), WithCategory("dense"))
	if err != nil {
		t.Fatal(err)
	}
	sparsePlan, err := db.Explain(0, 50, WithMethod(MethodAuto), WithCategory("sparse"))
	if err != nil {
		t.Fatal(err)
	}
	if densePlan.Method != INE {
		t.Errorf("dense/small-k regime: planned %v (%s), want INE", densePlan.Method, densePlan.Reason)
	}
	if sparsePlan.Method == INE || sparsePlan.Method == MethodAuto {
		t.Errorf("sparse/large-k regime: planned %v (%s), want a non-INE method", sparsePlan.Method, sparsePlan.Reason)
	}
	if densePlan.Method == sparsePlan.Method {
		t.Errorf("planner chose %v for both regimes; the crossover is the point", densePlan.Method)
	}

	// And the auto-planned queries are still exactly correct in both.
	ctx := context.Background()
	for _, c := range []struct {
		cat string
		k   int
	}{{"dense", 2}, {"sparse", 50}} {
		got, err := db.KNN(ctx, 0, c.k, WithMethod(MethodAuto), WithCategory(c.cat))
		if err != nil {
			t.Fatal(err)
		}
		want, err := db.BruteForceKNN(0, c.k, WithCategory(c.cat))
		if err != nil {
			t.Fatal(err)
		}
		if !SameResults(got, want) {
			t.Errorf("%s: auto answer %s != %s", c.cat, FormatResults(got), FormatResults(want))
		}
	}
}

// TestExplain covers the fixed-method path and validation.
func TestExplain(t *testing.T) {
	db := testDB(t)
	p, err := db.Explain(0, 5, WithMethod(Gtree))
	if err != nil || p.Method != Gtree || p.Reason == "" {
		t.Fatalf("fixed Explain = %+v, %v", p, err)
	}
	auto, err := db.Explain(0, 5, WithMethod(MethodAuto))
	if err != nil || auto.Method == MethodAuto || auto.Reason == "" {
		t.Fatalf("auto Explain = %+v, %v", auto, err)
	}
	if _, err := db.Explain(0, 0); !errors.Is(err, ErrBadK) {
		t.Fatalf("bad k: %v", err)
	}
	if _, err := db.Explain(0, 5, WithMethod(Method(42))); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("unknown method: %v", err)
	}
	if _, err := db.Explain(0, 5, WithMethod(DisBrw)); !errors.Is(err, ErrMethodNotEnabled) {
		t.Fatalf("disabled method: %v", err)
	}
	if _, err := db.Explain(-5, 5); !errors.Is(err, ErrBadVertex) {
		t.Fatalf("bad vertex: %v", err)
	}
}

// TestAutoAdaptsToObservedLatency: after feeding the planner heavily
// skewed observations for a regime, MethodAuto must move off its static
// choice within that regime.
func TestAutoAdaptsToObservedLatency(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "adapt", Rows: 16, Cols: 20, Seed: 8})
	db, err := Open(g,
		WithMethods(INE, Gtree),
		WithObjects(DefaultCategory, gen.Uniform(g, 0.1, 3)),
	)
	if err != nil {
		t.Fatal(err)
	}
	before, err := db.Explain(0, 2, WithMethod(MethodAuto))
	if err != nil {
		t.Fatal(err)
	}
	if before.Method != INE {
		t.Fatalf("static dense choice = %v, want INE", before.Method)
	}
	b, err := db.snapshot(DefaultCategory)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate INE latencies collapsing (as if the regime's real traffic
	// contradicted the model) and Gtree being fast.
	for i := 0; i < 30; i++ {
		db.plan.Observe(INE.kind(), db.features(2, b), 50*time.Millisecond)
		db.plan.Observe(Gtree.kind(), db.features(2, b), 50*time.Microsecond)
	}
	after, err := db.Explain(0, 2, WithMethod(MethodAuto))
	if err != nil {
		t.Fatal(err)
	}
	if after.Method != Gtree {
		t.Fatalf("after observations: %v (%s), want Gtree", after.Method, after.Reason)
	}
}

// TestParseMethodAuto: "auto" round-trips case-insensitively.
func TestParseMethodAuto(t *testing.T) {
	for _, s := range []string{"Auto", "auto", "AUTO"} {
		m, err := ParseMethod(s)
		if err != nil || m != MethodAuto {
			t.Fatalf("ParseMethod(%q) = %v, %v", s, m, err)
		}
	}
	if MethodAuto.String() != "Auto" {
		t.Fatalf("MethodAuto.String() = %q", MethodAuto.String())
	}
	if m, err := ParseMethod("ier-phl"); err != nil || m != IERPHL {
		t.Fatalf("case-insensitive parse: %v, %v", m, err)
	}
}

// TestValidationBoundaries is the table-driven boundary check across every
// public query entry point: each bad input maps to its typed error, never a
// silent fallback, and a request with two bad inputs reports the same one
// everywhere — the checks run in one order (k or radius, method, ctx,
// vertex, category) for every entry point.
func TestValidationBoundaries(t *testing.T) {
	db := testDB(t)
	bg := context.Background()
	cancelled, cancel := context.WithCancel(bg)
	cancel()
	nv := int32(db.Graph().NumVertices())

	// appendErr runs an *Append form into a pre-filled buffer and fails the
	// test unless an error leaves it unextended (same length, same backing).
	appendErr := func(name string, run func(dst []Result) ([]Result, error)) error {
		dst := make([]Result, 2, 8)
		got, err := run(dst)
		if err != nil && (len(got) != len(dst) || &got[0] != &dst[0]) {
			t.Errorf("%s: error returned dst extended or replaced (len %d)", name, len(got))
		}
		return err
	}
	batchErr := func(ctx context.Context, add func(b *Batch) *Batch) error {
		res, err := add(db.Batch()).Run(ctx)
		if err != nil {
			return err
		}
		return res[0].Err
	}

	// n is k for the kNN entry points and the radius for the range ones.
	type call func(ctx context.Context, q int32, n int, opts ...QueryOption) error
	type entry struct {
		name    string
		isRange bool
		// noCtx marks entry points that take no context (the cancelled-ctx
		// cases skip them).
		noCtx bool
		call  call
	}
	entries := []entry{
		{name: "KNN", call: func(ctx context.Context, q int32, k int, o ...QueryOption) error {
			return errOf(db.KNN(ctx, q, k, o...))
		}},
		{name: "KNNAppend", call: func(ctx context.Context, q int32, k int, o ...QueryOption) error {
			return appendErr("KNNAppend", func(dst []Result) ([]Result, error) { return db.KNNAppend(ctx, q, k, dst, o...) })
		}},
		{name: "KNNPinned", call: func(ctx context.Context, q int32, k int, o ...QueryOption) error {
			_, _, err := db.KNNPinned(ctx, q, k, o...)
			return err
		}},
		{name: "KNNSeq", call: func(ctx context.Context, q int32, k int, o ...QueryOption) error {
			return lastErr(db.KNNSeq(ctx, q, k, o...))
		}},
		{name: "Monitor", call: func(ctx context.Context, q int32, k int, o ...QueryOption) error {
			return lastErr(db.Monitor(ctx, []int32{0, q}, k, o...))
		}},
		{name: "Batch.AddKNN", call: func(ctx context.Context, q int32, k int, o ...QueryOption) error {
			return batchErr(ctx, func(b *Batch) *Batch { return b.AddKNN(q, k, o...) })
		}},
		{name: "Explain", noCtx: true, call: func(_ context.Context, q int32, k int, o ...QueryOption) error {
			_, err := db.Explain(q, k, o...)
			return err
		}},
		{name: "BruteForceKNN", noCtx: true, call: func(_ context.Context, q int32, k int, o ...QueryOption) error {
			return errOf(db.BruteForceKNN(q, k, o...))
		}},
		{name: "Range", isRange: true, call: func(ctx context.Context, q int32, r int, o ...QueryOption) error {
			return errOf(db.Range(ctx, q, Dist(r), o...))
		}},
		{name: "RangeAppend", isRange: true, call: func(ctx context.Context, q int32, r int, o ...QueryOption) error {
			return appendErr("RangeAppend", func(dst []Result) ([]Result, error) { return db.RangeAppend(ctx, q, Dist(r), dst, o...) })
		}},
		{name: "RangePinned", isRange: true, call: func(ctx context.Context, q int32, r int, o ...QueryOption) error {
			_, _, err := db.RangePinned(ctx, q, Dist(r), o...)
			return err
		}},
		{name: "Batch.AddRange", isRange: true, call: func(ctx context.Context, q int32, r int, o ...QueryOption) error {
			return batchErr(ctx, func(b *Batch) *Batch { return b.AddRange(q, Dist(r), o...) })
		}},
		{name: "BruteForceRange", isRange: true, noCtx: true, call: func(_ context.Context, q int32, r int, o ...QueryOption) error {
			return errOf(db.BruteForceRange(q, Dist(r), o...))
		}},
	}

	type tc struct {
		name string
		ctx  context.Context
		q    int32
		n    int
		opts []QueryOption
		want error
	}
	nope := WithCategory("nope")
	shared := []tc{
		{"unknown method", bg, 0, 3, []QueryOption{WithMethod(Method(99))}, ErrUnknownMethod},
		{"negative method", bg, 0, 3, []QueryOption{WithMethod(Method(-7))}, ErrUnknownMethod},
		{"negative vertex", bg, -1, 3, nil, ErrBadVertex},
		{"vertex past end", bg, nv, 3, nil, ErrBadVertex},
		{"unknown category", bg, 0, 3, []QueryOption{nope}, ErrUnknownCategory},
		{"cancelled ctx", cancelled, 0, 3, nil, context.Canceled},
		// Two bad inputs: the earlier check in the fixed order wins.
		{"bad vertex before category", bg, -1, 3, []QueryOption{nope}, ErrBadVertex},
		{"ctx before vertex", cancelled, -1, 3, nil, context.Canceled},
		{"method before vertex", bg, -1, 3, []QueryOption{WithMethod(Method(99))}, ErrUnknownMethod},
	}
	knnCases := append([]tc{
		{"k=0", bg, 0, 0, nil, ErrBadK},
		{"k<0", bg, 0, -3, nil, ErrBadK},
		{"disabled method", bg, 0, 3, []QueryOption{WithMethod(DisBrwOH)}, ErrMethodNotEnabled},
		{"k before vertex", bg, -1, 0, nil, ErrBadK},
		{"k before method", bg, 0, 0, []QueryOption{WithMethod(DisBrwOH)}, ErrBadK},
	}, shared...)
	rangeCases := append([]tc{
		{"radius<0", bg, 0, -1, nil, ErrBadRadius},
		{"non-INE method", bg, 0, 3, []QueryOption{WithMethod(IERPHL)}, ErrRangeMethod},
		{"radius before vertex", bg, -1, -1, nil, ErrBadRadius},
		{"radius before method", bg, 0, -1, []QueryOption{WithMethod(Gtree)}, ErrBadRadius},
	}, shared...)

	for _, e := range entries {
		cases := knnCases
		if e.isRange {
			cases = rangeCases
		}
		for _, c := range cases {
			if e.noCtx && c.ctx != bg {
				continue
			}
			if err := e.call(c.ctx, c.q, c.n, c.opts...); !errors.Is(err, c.want) {
				t.Errorf("%s %s: got %v, want %v", e.name, c.name, err, c.want)
			}
		}
	}

	// Monitor validates every route vertex up front, not just the first.
	if err := lastErr(db.Monitor(bg, []int32{0, 1, nv}, 3)); !errors.Is(err, ErrBadVertex) {
		t.Errorf("Monitor bad later route vertex: got %v, want ErrBadVertex", err)
	}
	// Range accepts MethodAuto (resolves to the one native range method).
	if _, err := db.Range(bg, 0, 100, WithMethod(MethodAuto)); err != nil {
		t.Errorf("Range with MethodAuto: %v", err)
	}
}

// lastErr drains a stream and returns its final error (nil when it ended
// cleanly).
func lastErr[T any](seq iter.Seq2[T, error]) error {
	var last error
	for _, err := range seq {
		last = err
	}
	return last
}
