// proto.go: the metric spec the wire carries.
//
// A metric is defined by a store.Prototype: a comparable value naming
// its synopsis family and geometry, which marshals to JSON as
// {"family":"distinct","precision":12,"seed":42}. ProtoSpec is the same
// type under the serving API's name. Server and Client both hold
// name→spec tables — the server to advertise its metric schema on GET
// /v1/metrics, the client to rebuild receiver synopses when decoding
// answers. Because both sides construct from the same parameters
// (including hash seeds), the client's decoded synopses are
// merge-compatible and byte-identical to the server's. A spec that
// arrives off the wire is checked by store.Prototype.Validate before
// anything is built from it.
package serve

import "repro/internal/store"

// ProtoSpec declares a metric's synopsis family and construction
// parameters.
type ProtoSpec = store.Prototype

// DistinctSpec declares a HyperLogLog uniques metric with 2^precision
// registers.
func DistinctSpec(precision uint8, seed uint64) ProtoSpec {
	return ProtoSpec{Family: store.FamilyDistinct, Precision: precision, Seed: seed}
}

// FreqSpec declares a width x depth Count-Min frequency metric.
func FreqSpec(width, depth int, seed uint64) ProtoSpec {
	return ProtoSpec{Family: store.FamilyFreq, Width: width, Depth: depth, Seed: seed}
}

// TopKSpec declares a k-counter Space-Saving heavy-hitters metric.
func TopKSpec(k int) ProtoSpec {
	return ProtoSpec{Family: store.FamilyTopK, K: k}
}

// QuantileSpec declares a q-digest quantiles metric over values in
// [0, 2^logU) with compression factor k.
func QuantileSpec(logU uint8, k uint64) ProtoSpec {
	return ProtoSpec{Family: store.FamilyQuantile, LogU: logU, CompressK: k}
}
