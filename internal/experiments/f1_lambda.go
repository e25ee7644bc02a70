package experiments

import (
	"fmt"
	"sort"

	"repro/internal/lambda"
	"repro/internal/store"
	"repro/internal/workload"
)

// F1_2_StoreLambda proves the offset-fenced batch/speed split end to end:
// a store-backed Lambda serving all four synopsis families (counters,
// cardinality, top-k, quantiles) must answer exactly like a single store
// that replayed the whole master log, at every batch-recompute boundary,
// under Zipf-skewed ingest.
//
// The mismatch column is the acceptance gate and must be zero: counters
// (Count-Min is additive), cardinality (HyperLogLog merge is register
// max) and top-k (Space-Saving in its exact regime: k counters >= item
// universe) are compared for equality; quantiles are compared against the
// exact value list within the merged q-digest's rank-error budget (two
// constituents at logU/k = 16/256 each, checked at 4x slack).
func F1_2_StoreLambda() Table {
	t := Table{
		ID:     "F1.2",
		Title:  "Store-backed Lambda: merged batch+speed answers vs single-store oracle",
		Claim:  "across batch boundaries, merged answers equal a replay-everything oracle (counters/cardinality/top-k exact, quantiles within bound)",
		Header: []string{"boundary", "appended", "staleness-pre", "checked", "mismatch"},
	}
	geom := store.Config{Shards: 8, BucketWidth: 1000, RingBuckets: 64}
	arch, err := lambda.New(lambda.Config{Partitions: 4, Store: geom})
	if err != nil {
		panic(err)
	}
	defer arch.Close()

	protos := map[string]store.Prototype{}
	mk := func(name string, p store.Prototype, err error) {
		if err != nil {
			panic(err)
		}
		protos[name] = p
		if err := arch.RegisterMetric(name, p); err != nil {
			panic(err)
		}
	}
	cm, err := store.NewFreqProto(512, 4, 12)
	mk("hits", cm, err)
	hll, err := store.NewDistinctProto(12, 12)
	mk("uniq", hll, err)
	ss, err := store.NewTopKProto(64) // item universe is 48: exact regime
	mk("top", ss, err)
	qd, err := store.NewQuantileProto(16, 256)
	mk("lat", qd, err)

	rng := workload.NewRNG(112)
	z := workload.NewZipf(rng, 32, 1.3)
	values := map[string][]uint64{}
	const rounds = 4 // >= 3 batch-recompute boundaries, plus one extra
	const perRound = 15000
	var now int64
	for round := 1; round <= rounds; round++ {
		for i := 0; i < perRound; i++ {
			now = int64((round-1)*perRound + i)
			key := fmt.Sprintf("k%d", z.Draw())
			item := fmt.Sprintf("u%d", rng.Uint64()%48)
			val := rng.Uint64() % 50000
			if err := arch.ObserveBatch([]store.Observation{
				{Metric: "hits", Key: key, Item: item, Value: 1 + val%5, Time: now},
				{Metric: "uniq", Key: key, Item: item, Time: now},
				{Metric: "top", Key: key, Item: item, Time: now},
				{Metric: "lat", Key: key, Value: val, Time: now},
			}); err != nil {
				panic(err)
			}
			values[key] = append(values[key], val)
		}
		stalePre := arch.Staleness()
		if _, err := arch.RunBatch(); err != nil {
			panic(err)
		}
		checked, mismatch := lambdaOracleCompare(arch, geom, protos, values, now)
		t.AddRow(d(round), d(arch.Appended()), d(stalePre), d(checked), d(mismatch))
	}
	return t
}

// querier is the read side every serving layer shares.
type querier interface {
	Query(store.QueryRequest) (store.QueryResult, error)
}

// queryPoint answers one series over the inclusive range [from, to] —
// the experiments' point-query shorthand over the typed API.
func queryPoint(q querier, metric, key string, from, to int64) (store.Synopsis, error) {
	res, err := q.Query(store.PointRequest(metric, key, from, to))
	if err != nil {
		return nil, err
	}
	return res.Raw(), nil
}

// lambdaOracleCompare checks every key's merged answer against a single
// store rebuilt from the whole master log with the architecture's own
// geometry, returning how many answers were checked and how many
// disagreed beyond each family's bound.
func lambdaOracleCompare(arch *lambda.Architecture, geom store.Config, protos map[string]store.Prototype, values map[string][]uint64, to int64) (checked, mismatch int) {
	oracle, _, err := store.Rebuild(geom, protos, arch.Topic())
	if err != nil {
		panic(err)
	}
	q := func(src querier, metric, key string) store.Synopsis {
		syn, err := queryPoint(src, metric, key, 0, to)
		if err != nil {
			panic(err)
		}
		return syn
	}
	for _, key := range oracle.Keys("hits") {
		// Counters: additive, exact.
		mh := q(arch, "hits", key).(*store.Freq)
		oh := q(oracle, "hits", key).(*store.Freq)
		for u := 0; u < 8; u++ {
			item := fmt.Sprintf("u%d", u)
			if mh.Count(item) != oh.Count(item) {
				mismatch++
			}
			checked++
		}
		// Cardinality: register max, exact.
		if q(arch, "uniq", key).(*store.Distinct).Estimate() != q(oracle, "uniq", key).(*store.Distinct).Estimate() {
			mismatch++
		}
		checked++
		// Top-k: exact regime (64 counters, 48 items), exact.
		mt := map[string]uint64{}
		for _, c := range q(arch, "top", key).(*store.TopK).Top(64) {
			mt[c.Item] = c.Count
		}
		ot := map[string]uint64{}
		for _, c := range q(oracle, "top", key).(*store.TopK).Top(64) {
			ot[c.Item] = c.Count
		}
		if len(mt) != len(ot) {
			mismatch++
		} else {
			for item, c := range ot {
				if mt[item] != c {
					mismatch++
					break
				}
			}
		}
		checked++
		// Quantiles: rank error within the merged digest budget against
		// the exact value list.
		vals := append([]uint64(nil), values[key]...)
		sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
		n := len(vals)
		tol := int(0.25*float64(n)) + 1 // 4x slack on 2 x logU/k = 0.125
		ml := q(arch, "lat", key).(*store.Quantiles)
		for _, phi := range []float64{0.5, 0.9, 0.99} {
			got := ml.Quantile(phi)
			lo := sort.Search(n, func(i int) bool { return vals[i] >= got })
			hi := sort.Search(n, func(i int) bool { return vals[i] > got })
			target := int(phi * float64(n))
			if lo-tol > target || hi+tol < target {
				mismatch++
			}
			checked++
		}
	}
	return checked, mismatch
}
