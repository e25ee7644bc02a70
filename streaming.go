// Package repro is a production-quality Go toolkit for real-time
// streaming analytics, reproducing the full landscape of the VLDB'15
// tutorial "Real Time Analytics: Algorithms and Systems" (Kejariwal,
// Kulkarni, Ramasamy — Twitter Inc.): every algorithm family of the
// tutorial's Table 1, the synopsis structures of its Section 2, a
// Storm/Heron-style topology engine and Kafka-like partitioned log
// covering the platform design space of its Table 2/Section 3, and the
// Lambda Architecture of its Figure 1.
//
// This root package is the public API: it re-exports the constructors and
// types of the internal implementation packages under one import path, the
// way a production sketch library (e.g. the DataSketches project the
// tutorial cites) presents itself. Each alias points at a fully documented
// implementation; see the internal package docs for algorithmic detail and
// paper citations, DESIGN.md for the system inventory, and EXPERIMENTS.md
// for the reproduced experiments.
//
// # Quick start
//
//	hll, _ := repro.NewHyperLogLog(14, 42)
//	topk, _ := repro.NewSpaceSaving(100)
//	for _, tag := range tags {
//	    hll.UpdateString(tag)
//	    topk.Update(tag)
//	}
//	fmt.Println(hll.Estimate(), topk.TopK(10))
package repro

import (
	"net/http"
	"time"

	"repro/internal/admission"
	"repro/internal/analytics"
	"repro/internal/anomaly"
	"repro/internal/cardinality"
	"repro/internal/cluster"
	"repro/internal/correlation"
	"repro/internal/dstore"
	"repro/internal/engine"
	"repro/internal/filter"
	"repro/internal/frequency"
	"repro/internal/graphstream"
	"repro/internal/histogram"
	"repro/internal/inversions"
	"repro/internal/lambda"
	"repro/internal/moments"
	"repro/internal/mqlog"
	"repro/internal/pattern"
	"repro/internal/predict"
	"repro/internal/quantile"
	"repro/internal/rcache"
	"repro/internal/sampling"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/subsequence"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wavelet"
	"repro/internal/window"
	"repro/internal/workload"
)

// ---- Cardinality estimation (Table 1: "Estimating Cardinality") ----

// HyperLogLog estimates distinct counts in ~1.04/sqrt(2^p) relative error.
type HyperLogLog = cardinality.HyperLogLog

// SparseHLL is HLL++ with an automatic sparse-to-dense crossover.
type SparseHLL = cardinality.SparseHLL

// LinearCounter is occupancy-based distinct counting.
type LinearCounter = cardinality.LinearCounter

// PCSA is Flajolet–Martin probabilistic counting.
type PCSA = cardinality.PCSA

// LogLog is the Durand–Flajolet estimator.
type LogLog = cardinality.LogLog

// KMV is bottom-k distinct counting with Jaccard support.
type KMV = cardinality.KMV

// SlidingHLL answers distinct counts over sliding windows.
type SlidingHLL = cardinality.SlidingHLL

// NewHyperLogLog returns an HLL with 2^precision registers.
func NewHyperLogLog(precision uint8, seed uint64) (*HyperLogLog, error) {
	return cardinality.NewHyperLogLog(precision, seed)
}

// NewSparseHLL returns an HLL++-style sketch.
func NewSparseHLL(precision uint8, seed uint64) (*SparseHLL, error) {
	return cardinality.NewSparseHLL(precision, seed)
}

// NewLinearCounter returns a linear counter with nbits bits.
func NewLinearCounter(nbits int, seed uint64) (*LinearCounter, error) {
	return cardinality.NewLinearCounter(nbits, seed)
}

// NewPCSA returns a Flajolet–Martin sketch with nmaps bitmaps.
func NewPCSA(nmaps int, seed uint64) (*PCSA, error) { return cardinality.NewPCSA(nmaps, seed) }

// NewLogLog returns a LogLog sketch with 2^precision registers.
func NewLogLog(precision uint8, seed uint64) (*LogLog, error) {
	return cardinality.NewLogLog(precision, seed)
}

// NewKMV returns a bottom-k sketch of size k.
func NewKMV(k int, seed uint64) (*KMV, error) { return cardinality.NewKMV(k, seed) }

// NewSlidingHLL returns a sliding-window HLL for windows up to maxWindow.
func NewSlidingHLL(precision uint8, maxWindow uint64, seed uint64) (*SlidingHLL, error) {
	return cardinality.NewSlidingHLL(precision, maxWindow, seed)
}

// ---- Membership filters (Table 1: "Filtering") ----

// Bloom is the classic Bloom filter.
type Bloom = filter.Bloom

// CountingBloom supports deletions via small counters.
type CountingBloom = filter.CountingBloom

// PartitionedBloom gives each hash its own bit slice.
type PartitionedBloom = filter.PartitionedBloom

// StableBloom decays over time for unbounded duplicate suppression.
type StableBloom = filter.StableBloom

// Cuckoo is the cuckoo filter (deletion + better space at low FPR).
type Cuckoo = filter.Cuckoo

// NewBloom sizes a Bloom filter for expectedItems at fpRate.
func NewBloom(expectedItems int, fpRate float64, seed uint64) (*Bloom, error) {
	return filter.NewBloom(expectedItems, fpRate, seed)
}

// NewBloomMK returns a Bloom filter with explicit geometry.
func NewBloomMK(mBits int, k uint, seed uint64) (*Bloom, error) {
	return filter.NewBloomMK(mBits, k, seed)
}

// NewCountingBloom returns a counting Bloom filter.
func NewCountingBloom(m int, k uint, seed uint64) (*CountingBloom, error) {
	return filter.NewCountingBloom(m, k, seed)
}

// NewPartitionedBloom returns a partitioned Bloom filter.
func NewPartitionedBloom(sliceBits int, k uint, seed uint64) (*PartitionedBloom, error) {
	return filter.NewPartitionedBloom(sliceBits, k, seed)
}

// NewStableBloom returns a time-decaying Bloom filter.
func NewStableBloom(m int, k uint, max uint8, p int, seed uint64) (*StableBloom, error) {
	return filter.NewStableBloom(m, k, max, p, seed)
}

// NewCuckoo returns a cuckoo filter sized for expectedItems.
func NewCuckoo(expectedItems int, seed uint64) (*Cuckoo, error) {
	return filter.NewCuckoo(expectedItems, seed)
}

// ---- Frequent elements (Table 1: "Finding Frequent Elements") ----

// CountMin is the Count-Min sketch.
type CountMin = frequency.CountMin

// CountSketch is the signed median sketch (turnstile model).
type CountSketch = frequency.CountSketch

// MisraGries is the Frequent algorithm.
type MisraGries = frequency.MisraGries

// SpaceSaving is the Metwally et al. top-k summary.
type SpaceSaving = frequency.SpaceSaving

// LossyCounting is the Manku–Motwani deterministic summary.
type LossyCounting = frequency.LossyCounting

// StickySampling is the Manku–Motwani probabilistic summary.
type StickySampling = frequency.StickySampling

// HierarchicalHH finds hierarchical heavy hitters.
type HierarchicalHH = frequency.HierarchicalHH

// WindowTopK tracks top-k over a sliding window.
type WindowTopK = frequency.WindowTopK

// Counted is an item with its estimated count.
type Counted = frequency.Counted

// NewCountMin returns a width x depth Count-Min sketch.
func NewCountMin(width, depth int, seed uint64) (*CountMin, error) {
	return frequency.NewCountMin(width, depth, seed)
}

// NewCountMinWithError sizes a Count-Min sketch for (eps, delta).
func NewCountMinWithError(eps, delta float64, seed uint64) (*CountMin, error) {
	return frequency.NewCountMinWithError(eps, delta, seed)
}

// NewCountSketch returns a width x depth Count Sketch.
func NewCountSketch(width, depth int, seed uint64) (*CountSketch, error) {
	return frequency.NewCountSketch(width, depth, seed)
}

// NewMisraGries returns a Frequent summary with k counters.
func NewMisraGries(k int) (*MisraGries, error) { return frequency.NewMisraGries(k) }

// NewSpaceSaving returns a Space-Saving summary with k counters.
func NewSpaceSaving(k int) (*SpaceSaving, error) { return frequency.NewSpaceSaving(k) }

// NewLossyCounting returns a Lossy Counting summary with error eps.
func NewLossyCounting(eps float64) (*LossyCounting, error) { return frequency.NewLossyCounting(eps) }

// NewStickySampling returns a Sticky Sampling summary.
func NewStickySampling(theta, eps, delta float64, seed uint64) (*StickySampling, error) {
	return frequency.NewStickySampling(theta, eps, delta, seed)
}

// NewHierarchicalHH returns a hierarchical heavy-hitter summary.
func NewHierarchicalHH(maxDepth, k int, sep string) (*HierarchicalHH, error) {
	return frequency.NewHierarchicalHH(maxDepth, k, sep)
}

// NewWindowTopK returns a sliding-window top-k tracker.
func NewWindowTopK(windowSize int) (*WindowTopK, error) { return frequency.NewWindowTopK(windowSize) }

// ---- Quantiles (Table 1: "Estimating Quantiles") ----

// GK is the Greenwald–Khanna summary.
type GK = quantile.GK

// QDigest is the mergeable q-digest over integer domains.
type QDigest = quantile.QDigest

// CKMS is the targeted/biased-quantile summary.
type CKMS = quantile.CKMS

// QuantileTarget declares a (phi, eps) objective for CKMS.
type QuantileTarget = quantile.Target

// Frugal1U estimates one quantile in one word of memory.
type Frugal1U = quantile.Frugal1U

// Frugal2U is the adaptive-step two-word variant.
type Frugal2U = quantile.Frugal2U

// ExactQuantile is the exact baseline.
type ExactQuantile = quantile.Exact

// NewGK returns a Greenwald–Khanna summary with rank error eps.
func NewGK(eps float64) (*GK, error) { return quantile.NewGK(eps) }

// NewQDigest returns a q-digest over [0, 2^logU) with compression k.
func NewQDigest(logU uint8, k uint64) (*QDigest, error) { return quantile.NewQDigest(logU, k) }

// NewCKMS returns a targeted-quantile summary.
func NewCKMS(targets []QuantileTarget) (*CKMS, error) { return quantile.NewCKMS(targets) }

// NewFrugal1U returns a one-word estimator of the phi-quantile.
func NewFrugal1U(phi float64, seed uint64) (*Frugal1U, error) { return quantile.NewFrugal1U(phi, seed) }

// NewFrugal2U returns a two-word adaptive estimator of the phi-quantile.
func NewFrugal2U(phi float64, seed uint64) (*Frugal2U, error) { return quantile.NewFrugal2U(phi, seed) }

// NewExactQuantile returns the exact baseline accumulator.
func NewExactQuantile() *ExactQuantile { return quantile.NewExact() }

// WindowedQuantile answers quantiles over the last W values (blocked GK).
type WindowedQuantile = quantile.Windowed

// NewWindowedQuantile returns a sliding-window quantile summary.
func NewWindowedQuantile(windowSize int, eps float64) (*WindowedQuantile, error) {
	return quantile.NewWindowed(windowSize, eps)
}

// ---- Sampling (Table 1: "Sampling") ----

// NewReservoir returns a uniform reservoir sampler of size k (Vitter R).
func NewReservoir[T any](k int, seed uint64) (*sampling.Reservoir[T], error) {
	return sampling.NewReservoir[T](k, seed)
}

// NewReservoirL returns the skip-ahead variant (Algorithm L).
func NewReservoirL[T any](k int, seed uint64) (*sampling.ReservoirL[T], error) {
	return sampling.NewReservoirL[T](k, seed)
}

// NewWeightedReservoir returns an A-ES weighted sampler.
func NewWeightedReservoir[T any](k int, seed uint64) (*sampling.WeightedReservoir[T], error) {
	return sampling.NewWeightedReservoir[T](k, seed)
}

// NewBiasedReservoir returns Aggarwal's recency-biased sampler.
func NewBiasedReservoir[T any](k int, seed uint64) (*sampling.BiasedReservoir[T], error) {
	return sampling.NewBiasedReservoir[T](k, seed)
}

// NewChainSample returns a sliding-window uniform sampler.
func NewChainSample[T any](k int, windowSize uint64, seed uint64) (*sampling.ChainSample[T], error) {
	return sampling.NewChainSample[T](k, windowSize, seed)
}

// NewBernoulli returns an independent p-sampler.
func NewBernoulli[T any](p float64, seed uint64) (*sampling.Bernoulli[T], error) {
	return sampling.NewBernoulli[T](p, seed)
}

// ---- Moments, windows, histograms, wavelets (Table 1 + Section 2) ----

// AMSF2 estimates the second frequency moment.
type AMSF2 = moments.AMSF2

// FkSampler estimates higher frequency moments.
type FkSampler = moments.FkSampler

// DGIM counts ones over sliding windows in polylog space.
type DGIM = window.DGIM

// SignificantOnes is the Lee–Ting relaxed window counter.
type SignificantOnes = window.SignificantOnes

// EHSum extends DGIM to bounded integer sums.
type EHSum = window.EHSum

// SlidingStats tracks windowed mean/variance exactly.
type SlidingStats = window.SlidingStats

// HistogramBucket is one histogram bucket.
type HistogramBucket = histogram.Bucket

// EquiWidthHistogram is the fixed-bucket baseline histogram.
type EquiWidthHistogram = histogram.EquiWidth

// EndBiasedHistogram keeps exact heads and a uniform tail.
type EndBiasedHistogram = histogram.EndBiased

// WaveletSynopsis is a top-k Haar coefficient synopsis.
type WaveletSynopsis = wavelet.Synopsis

// NewAMSF2 returns a tug-of-war sketch with rows x cols counters.
func NewAMSF2(rows, cols int, seed uint64) (*AMSF2, error) { return moments.NewAMSF2(rows, cols, seed) }

// NewFkSampler returns an F_k estimator with the given sampler count.
func NewFkSampler(k, samplers int, seed uint64) (*FkSampler, error) {
	return moments.NewFkSampler(k, samplers, seed)
}

// NewDGIM returns an exponential-histogram window counter.
func NewDGIM(windowSize uint64, eps float64) (*DGIM, error) { return window.NewDGIM(windowSize, eps) }

// NewSignificantOnes returns a Lee–Ting significant-one counter.
func NewSignificantOnes(windowSize uint64, theta, eps float64) (*SignificantOnes, error) {
	return window.NewSignificantOnes(windowSize, theta, eps)
}

// NewEHSum returns a sliding-window sum estimator.
func NewEHSum(windowSize uint64, eps float64, maxV uint64) (*EHSum, error) {
	return window.NewEHSum(windowSize, eps, maxV)
}

// NewSlidingStats returns an exact windowed mean/variance tracker.
func NewSlidingStats(windowSize int) (*SlidingStats, error) {
	return window.NewSlidingStats(windowSize)
}

// NewEquiWidthHistogram returns an equi-width histogram.
func NewEquiWidthHistogram(lo, hi float64, buckets int) (*EquiWidthHistogram, error) {
	return histogram.NewEquiWidth(lo, hi, buckets)
}

// VOptimalHistogram computes the SSE-optimal piecewise-constant histogram.
func VOptimalHistogram(values []float64, buckets int) ([]HistogramBucket, float64, error) {
	return histogram.VOptimal(values, buckets)
}

// NewEndBiasedHistogram returns an end-biased histogram.
func NewEndBiasedHistogram(threshold uint64) (*EndBiasedHistogram, error) {
	return histogram.NewEndBiased(threshold)
}

// NewWaveletSynopsis builds a k-coefficient Haar synopsis of a signal.
func NewWaveletSynopsis(signal []float64, k int) (*WaveletSynopsis, error) {
	return wavelet.NewSynopsis(signal, k)
}

// ---- Order statistics over sequences (Table 1 rows 8-9) ----

// InversionCounter counts inversions exactly (Fenwick tree).
type InversionCounter = inversions.ExactCounter

// InversionEstimator approximates inversions in sublinear space.
type InversionEstimator = inversions.Estimator

// LIS tracks the longest increasing subsequence exactly.
type LIS = subsequence.LIS

// ApproxLIS bounds memory with weighted patience tails.
type ApproxLIS = subsequence.ApproxLIS

// DTWMatcher finds stream subsequences similar to a query.
type DTWMatcher = subsequence.Matcher

// NewInversionCounter returns an exact inversion counter over [0, universe).
func NewInversionCounter(universe int) (*InversionCounter, error) {
	return inversions.NewExactCounter(universe)
}

// NewInversionEstimator returns a sampling inversion estimator.
func NewInversionEstimator(samplers int, seed uint64) (*InversionEstimator, error) {
	return inversions.NewEstimator(samplers, seed)
}

// NewLIS returns an exact streaming LIS tracker.
func NewLIS() *LIS { return subsequence.NewLIS() }

// NewApproxLIS returns a bounded-memory LIS estimator.
func NewApproxLIS(maxTails int) (*ApproxLIS, error) { return subsequence.NewApproxLIS(maxTails) }

// NewDTWMatcher returns a query-similar subsequence matcher.
func NewDTWMatcher(query []float64, threshold float64, radius int) (*DTWMatcher, error) {
	return subsequence.NewMatcher(query, threshold, radius)
}

// ---- Graph streams (Table 1: "Graph analysis", "Path Analysis") ----

// SpanningForest is one-pass streaming connectivity.
type SpanningForest = graphstream.SpanningForest

// GreedyMatching is the 2-approximate semi-streaming matcher.
type GreedyMatching = graphstream.GreedyMatching

// WeightedMatching is the one-pass weighted matcher.
type WeightedMatching = graphstream.WeightedMatching

// Spanner retains a (2k-1)-spanner of the edge stream.
type Spanner = graphstream.Spanner

// TriangleCounter counts triangles over edge streams.
type TriangleCounter = graphstream.TriangleCounter

// DynamicReach answers bounded-length path queries on dynamic graphs.
type DynamicReach = graphstream.DynamicReach

// GraphEdge is an undirected edge.
type GraphEdge = workload.Edge

// NewSpanningForest returns a streaming spanning forest.
func NewSpanningForest(n int) (*SpanningForest, error) { return graphstream.NewSpanningForest(n) }

// NewGreedyMatching returns a streaming maximal matcher.
func NewGreedyMatching(n int) (*GreedyMatching, error) { return graphstream.NewGreedyMatching(n) }

// NewWeightedMatching returns a one-pass weighted matcher.
func NewWeightedMatching(n int, gamma float64) (*WeightedMatching, error) {
	return graphstream.NewWeightedMatching(n, gamma)
}

// NewSpanner returns a streaming (2k-1)-spanner.
func NewSpanner(n, k int) (*Spanner, error) { return graphstream.NewSpanner(n, k) }

// NewTriangleCounter returns an exact streaming triangle counter.
func NewTriangleCounter(n int) (*TriangleCounter, error) { return graphstream.NewTriangleCounter(n) }

// NewDynamicReach returns a dynamic graph with <=l path queries.
func NewDynamicReach(n int) (*DynamicReach, error) { return graphstream.NewDynamicReach(n) }

// MinCut estimates global minimum cuts via repeated Karger contraction.
type MinCut = graphstream.MinCut

// NewMinCut returns a min-cut estimator over n vertices.
func NewMinCut(n int, seed uint64) (*MinCut, error) { return graphstream.NewMinCut(n, seed) }

// ---- Detection, prediction, clustering, correlation, patterns ----

// AnomalyDetector scores observations; higher is more anomalous.
type AnomalyDetector = anomaly.Detector

// EWMADetector is the control-chart detector.
type EWMADetector = anomaly.EWMA

// MADDetector is the robust median/MAD detector.
type MADDetector = anomaly.MAD

// ChangeDetector detects distribution shifts (KS windows).
type ChangeDetector = anomaly.ChangeDetector

// HSTrees is the streaming half-space-trees ensemble.
type HSTrees = anomaly.HSTrees

// Kalman is a constant-velocity Kalman filter.
type Kalman = predict.Kalman

// Holt is double exponential smoothing.
type Holt = predict.Holt

// AR1 is an online AR(1) model.
type AR1 = predict.AR1

// OnlineKMeans is the sequential one-pass clusterer.
type OnlineKMeans = cluster.OnlineKMeans

// StreamKMedian is the STREAM chunked clusterer.
type StreamKMedian = cluster.StreamKMedian

// MicroClusters maintains CluStream CF vectors.
type MicroClusters = cluster.MicroClusters

// ClusterPoint is a dense point.
type ClusterPoint = cluster.Point

// WindowedCorrelation is incrementally-maintained windowed Pearson.
type WindowedCorrelation = correlation.Windowed

// PairScanner finds correlated stream pairs.
type PairScanner = correlation.PairScanner

// SAX symbolizes real-valued series.
type SAX = pattern.SAX

// ShapeDetector matches symbol patterns over SAX streams.
type ShapeDetector = pattern.ShapeDetector

// CEP is the condition/action + sequence rule engine.
type CEP = pattern.CEP

// CEPEvent is one CEP input event.
type CEPEvent = pattern.Event

// CEPRule is a simple condition/action rule.
type CEPRule = pattern.Rule

// CEPSequenceRule is a followed-by-within-window rule.
type CEPSequenceRule = pattern.SequenceRule

// NewEWMADetector returns an EWMA z-score detector.
func NewEWMADetector(alpha float64) (*EWMADetector, error) { return anomaly.NewEWMA(alpha) }

// NewMADDetector returns a median/MAD detector over a window.
func NewMADDetector(windowSize int) (*MADDetector, error) { return anomaly.NewMAD(windowSize) }

// NewChangeDetector returns a KS distribution-shift detector.
func NewChangeDetector(windowSize int, threshold float64) (*ChangeDetector, error) {
	return anomaly.NewChangeDetector(windowSize, threshold)
}

// NewHSTrees returns a half-space-trees ensemble.
func NewHSTrees(trees, depth, dims, windowSize int, mins, maxs []float64, seed uint64) (*HSTrees, error) {
	return anomaly.NewHSTrees(trees, depth, dims, windowSize, mins, maxs, seed)
}

// NewKalman returns a constant-velocity Kalman filter.
func NewKalman(q, r float64) (*Kalman, error) { return predict.NewKalman(q, r) }

// NewHolt returns a Holt double-exponential forecaster.
func NewHolt(alpha, beta float64) (*Holt, error) { return predict.NewHolt(alpha, beta) }

// NewAR1 returns an online AR(1) model.
func NewAR1(lambda float64) (*AR1, error) { return predict.NewAR1(lambda) }

// Predictor is the shared one-step-ahead forecasting contract.
type Predictor = predict.Predictor

// NewLastValue returns the persistence baseline forecaster.
func NewLastValue() *predict.LastValue { return predict.NewLastValue() }

// ImputeRMSE scores a predictor imputing NaN gaps against ground truth.
func ImputeRMSE(p Predictor, truth, masked []float64) float64 {
	return predict.ImputeRMSE(p, truth, masked)
}

// NewOnlineKMeans returns a sequential k-means clusterer.
func NewOnlineKMeans(k, dim int) (*OnlineKMeans, error) { return cluster.NewOnlineKMeans(k, dim) }

// NewStreamKMedian returns a STREAM-style chunked clusterer.
func NewStreamKMedian(k, chunkSize int, seed uint64) (*StreamKMedian, error) {
	return cluster.NewStreamKMedian(k, chunkSize, seed)
}

// NewMicroClusters returns a CluStream micro-cluster maintainer.
func NewMicroClusters(max, dim int, radiusFactor float64) (*MicroClusters, error) {
	return cluster.NewMicroClusters(max, dim, radiusFactor)
}

// NewWindowedCorrelation returns a windowed Pearson tracker.
func NewWindowedCorrelation(windowSize int) (*WindowedCorrelation, error) {
	return correlation.NewWindowed(windowSize)
}

// NewPairScanner returns a correlated-pair scanner over k streams.
func NewPairScanner(k, windowSize int) (*PairScanner, error) {
	return correlation.NewPairScanner(k, windowSize)
}

// NewSAX returns a SAX symbolizer.
func NewSAX(alphabet, frame, normWindow int) (*SAX, error) {
	return pattern.NewSAX(alphabet, frame, normWindow)
}

// NewShapeDetector returns a symbol-pattern detector ('.' wildcards).
func NewShapeDetector(patternStr string) (*ShapeDetector, error) {
	return pattern.NewShapeDetector(patternStr)
}

// NewCEP returns a complex-event-processing rule engine.
func NewCEP(maxQueue int) (*CEP, error) { return pattern.NewCEP(maxQueue) }

// ---- Platforms (Table 2 / Section 3) and Lambda (Figure 1) ----

// TopologyBuilder assembles Storm/Heron-style dataflows.
type TopologyBuilder = engine.Builder

// Topology is a runnable dataflow.
type Topology = engine.Topology

// TopologyConfig tunes a run (semantics, queues, retries).
type TopologyConfig = engine.Config

// TopologyStats summarizes a run.
type TopologyStats = engine.Stats

// TupleMessage is one tuple.
type TupleMessage = engine.Message

// Bolt processes tuples.
type Bolt = engine.Bolt

// BoltFunc adapts a function to Bolt.
type BoltFunc = engine.BoltFunc

// Spout produces tuples.
type Spout = engine.Spout

// SpoutFunc adapts a function to Spout.
type SpoutFunc = engine.SpoutFunc

// Delivery semantics.
const (
	AtMostOnce  = engine.AtMostOnce
	AtLeastOnce = engine.AtLeastOnce
)

// NewTopologyBuilder returns an empty topology builder.
func NewTopologyBuilder() *TopologyBuilder { return engine.NewBuilder() }

// ShuffleFrom / FieldsFrom / GlobalFrom / BroadcastFrom subscribe bolts to
// upstream streams with the named grouping.
var (
	ShuffleFrom   = engine.ShuffleFrom
	FieldsFrom    = engine.FieldsFrom
	GlobalFrom    = engine.GlobalFrom
	BroadcastFrom = engine.BroadcastFrom
)

// NewDedup wraps a bolt with replay suppression (effectively-once).
func NewDedup(inner Bolt, idFn func(TupleMessage) uint64) (*engine.Dedup, error) {
	return engine.NewDedup(inner, idFn)
}

// Broker is the Kafka-like partitioned log.
type Broker = mqlog.Broker

// LogTopic is a partitioned topic.
type LogTopic = mqlog.Topic

// LogRecord is one key/value pair for batched appends (LogTopic.ProduceBatch).
type LogRecord = mqlog.Record

// ConsumerGroup coordinates partition-assigned consumers.
type ConsumerGroup = mqlog.ConsumerGroup

// NewBroker returns an empty log broker.
func NewBroker() *Broker { return mqlog.NewBroker() }

// NewConsumerGroup returns a consumer group over a topic.
func NewConsumerGroup(b *Broker, t *LogTopic, name string) (*ConsumerGroup, error) {
	return mqlog.NewConsumerGroup(b, t, name)
}

// LogDurableConfig enables segmented on-disk persistence for a topic:
// pass it to Broker.CreateTopicDurable (or via LambdaConfig.Durable /
// StoreClusterConfig.Durable) and the topic's partitions persist as
// chains of CRC-framed append-only segment files, recovered — torn tail
// truncated — when a broker reopens the same directory.
type LogDurableConfig = mqlog.DurableConfig

// LogDurabilityStats snapshots a durable topic's disk-side counters
// (segments, bytes, fsyncs, recovery figures); see LogTopic.DurabilityStats.
type LogDurabilityStats = mqlog.DurabilityStats

// ErrLogEmptyBatch is returned by LogTopic.ProduceBatchTo for an empty
// record batch — there is no "first assigned offset" to report.
var ErrLogEmptyBatch = mqlog.ErrEmptyBatch

// ErrLogInvalidFetchMax is returned by LogTopic.Fetch for max <= 0.
var ErrLogInvalidFetchMax = mqlog.ErrInvalidFetchMax

// ---- Sketch store (sharded speed-layer serving subsystem) ----

// SketchStore is the sharded, concurrent store of keyed, time-bucketed
// synopses — the speed-layer serving subsystem (see internal/store).
type SketchStore = store.Store

// StoreResettable marks synopses the store can recycle in place.
type StoreResettable = store.Resettable

// SketchStoreConfig tunes a SketchStore (shards, bucket geometry,
// retention budgets).
type SketchStoreConfig = store.Config

// StoreObservation is one data point bound for a SketchStore.
type StoreObservation = store.Observation

// StoreSynopsis is the mergeable bucket contract of the SketchStore.
type StoreSynopsis = store.Synopsis

// StorePrototype constructs fresh bucket synopses for a registered metric.
type StorePrototype = store.Prototype

// SketchStoreStats is a snapshot of a SketchStore's counters.
type SketchStoreStats = store.Stats

// DistinctSynopsis / FreqSynopsis / TopKSynopsis / QuantileSynopsis are
// the concrete bucket synopsis families a Query result can be asserted to.
type (
	DistinctSynopsis = store.Distinct
	FreqSynopsis     = store.Freq
	TopKSynopsis     = store.TopK
	QuantileSynopsis = store.Quantiles
)

// NewSketchStore returns an empty sharded sketch store.
func NewSketchStore(cfg SketchStoreConfig) (*SketchStore, error) { return store.New(cfg) }

// NewDistinctProto returns a HyperLogLog bucket prototype (2^p registers).
func NewDistinctProto(precision uint8, seed uint64) (StorePrototype, error) {
	return store.NewDistinctProto(precision, seed)
}

// NewFreqProto returns a Count-Min bucket prototype.
func NewFreqProto(width, depth int, seed uint64) (StorePrototype, error) {
	return store.NewFreqProto(width, depth, seed)
}

// NewTopKProto returns a Space-Saving bucket prototype with k counters.
func NewTopKProto(k int) (StorePrototype, error) { return store.NewTopKProto(k) }

// NewQuantileProto returns a q-digest bucket prototype over [0, 2^logU).
func NewQuantileProto(logU uint8, k uint64) (StorePrototype, error) {
	return store.NewQuantileProto(logU, k)
}

// EncodeObservation serializes an observation in the store's mqlog wire
// format.
func EncodeObservation(obs StoreObservation) []byte { return store.EncodeObservation(obs) }

// DecodeObservation parses the EncodeObservation wire format.
func DecodeObservation(data []byte) (StoreObservation, error) {
	return store.DecodeObservation(data)
}

// StoreBolt sinks a topology stream into a SketchStore.
//
// Deprecated: StoreBolt is SinkBolt; use NewSinkBolt with any Backend
// (wrap it with Instrument for serving telemetry).
type StoreBolt = engine.StoreBolt

// NewStoreBolt returns a bolt sinking into st; extract maps messages to
// observations (nil accepts Message.Value of type StoreObservation).
//
// Deprecated: use NewSinkBolt — a SketchStore is a Backend, and
// Instrument adds telemetry to any of them.
func NewStoreBolt(st *SketchStore, extract func(TupleMessage) (StoreObservation, bool)) (*StoreBolt, error) {
	return engine.NewStoreBolt(st, extract)
}

// CombineSnapshots merges partial query answers (e.g. per-node or per-key
// snapshots) into one fresh synopsis, deterministically — the
// scatter-gather combiner (see internal/store).
func CombineSnapshots(proto StorePrototype, parts ...StoreSynopsis) (StoreSynopsis, error) {
	return store.CombineSnapshots(proto, parts...)
}

// ReplayLogPartition feeds one partition's records in [from, end) into
// the store, skipping and counting poison, and reports the next offset
// to consume — the building block of log-based recovery (ReplayLog
// covers the whole-topic batch rebuild).
func ReplayLogPartition(st *SketchStore, topic *LogTopic, pid int, from uint64) (store.ReplayStats, error) {
	return store.ReplayPartition(st, topic, pid, from)
}

// ---- Unified serving API (analytics.Backend) ----

// Backend is the unified serving contract: SketchStore, ClusterRouter,
// Lambda and AnalyticsClient all satisfy it, so one call site can query
// the speed store, the partitioned cluster, the Lambda batch+speed merge
// or a remote daemon interchangeably. Seven methods, no optional ones:
// RegisterMetric, ObserveBatch (the one write path, all-or-nothing; one
// observation is a one-element batch), Query, QueryContext (Query under
// a deadline), Keys, Stats and Flush (a no-op where writes are
// synchronous). See internal/analytics for the exact
// cross-backend semantics (unknown metrics error with ErrUnknownMetric;
// registered metrics with no data answer empty cells).
type Backend = analytics.Backend

// QueryRequest is one typed serving query: metric(s), one/many/all keys,
// a half-open [From, To) stream-time range, and an aggregate-vs-per-key
// flag. Multi-key requests fan out in parallel inside each backend
// (per-shard gather in the store, per owning node in the cluster), and
// the cluster answers a whole multi-metric request in one
// generation-fenced parallel round.
type QueryRequest = store.QueryRequest

// QueryResult is the typed response: one QueryAnswer per requested cell,
// with typed accessors (Distinct, Count, TopK, Quantile, Raw) replacing
// caller-side synopsis type assertions.
type QueryResult = store.QueryResult

// QueryAnswer is one cell of a QueryResult: the merged synopsis of one
// (metric, key) series or of a metric's aggregated key union.
type QueryAnswer = store.Answer

// SynopsisFamily identifies which synopsis family an answer holds and
// therefore which typed accessors are meaningful on it.
type SynopsisFamily = store.Family

// The synopsis families a QueryAnswer can report.
const (
	FamilyOther    = store.FamilyOther
	FamilyDistinct = store.FamilyDistinct
	FamilyFreq     = store.FamilyFreq
	FamilyTopK     = store.FamilyTopK
	FamilyQuantile = store.FamilyQuantile
)

// ErrUnknownMetric is the sentinel every Backend wraps when a request or
// observation names a metric that was never registered.
var ErrUnknownMetric = store.ErrUnknownMetric

// PointRequest maps a single-series question (one metric, one key,
// inclusive [from, to]) onto the QueryRequest that answers it;
// Query(PointRequest(...)).Raw() is the series' merged synopsis.
func PointRequest(metric, key string, from, to int64) QueryRequest {
	return store.PointRequest(metric, key, from, to)
}

// SinkBolt sinks a topology stream into any serving Backend — the one
// terminal bolt that replaces StoreBolt/ClusterBolt/LambdaBolt.
type SinkBolt = engine.SinkBolt

// NewSinkBolt returns a bolt sinking into be; extract maps messages to
// observations (nil accepts Message.Value of type StoreObservation).
func NewSinkBolt(be Backend, extract func(TupleMessage) (StoreObservation, bool)) (*SinkBolt, error) {
	return engine.NewSinkBolt(be, extract)
}

// ---- Telemetry (self-instrumentation) ----

// Telemetry is the one observability handle every subsystem reports
// into: a metrics registry (atomic counters, gauges and fixed-bucket
// latency histograms with p50/p95/p99 accessors, encoded in the
// Prometheus text exposition format) that optionally carries the Tracer
// every layer traces into. Wire it into a subsystem with its
// SetTelemetry method (SketchStore, LogTopic, LogConsumerGroup,
// StoreCluster, Lambda), wrap any Backend with Instrument, and serve the
// scrape and debug surfaces with MetricsHandler. A nil *Telemetry
// everywhere means "telemetry off": instruments become no-ops and hot
// paths pay one pointer check.
type Telemetry = telemetry.Registry

// NewTelemetry returns an empty registry carrying tr (nil = untraced).
func NewTelemetry(tr *Tracer) *Telemetry { return telemetry.NewTraced(tr) }

// TelemetryCounter is a monotonically increasing counter instrument.
type TelemetryCounter = telemetry.Counter

// TelemetryGauge is a float gauge instrument.
type TelemetryGauge = telemetry.Gauge

// TelemetryHistogram is a fixed-bucket latency histogram instrument
// with Quantile/P50/P95/P99 accessors.
type TelemetryHistogram = telemetry.Histogram

// MetricsHandler returns an http.Handler serving reg: /metrics
// (Prometheus text exposition) and /debug/analytics (a JSON snapshot
// including histogram quantiles); /debug/traces (Chrome trace-event
// JSON, loadable in chrome://tracing or Perfetto) and /debug/slow (the
// slow-query log) when reg carries a Tracer; and the standard pprof
// endpoints under /debug/pprof/ when pprof is set. A nil registry serves
// valid empty payloads. Mount it on an http.Server of your own.
func MetricsHandler(reg *Telemetry, pprof bool) http.Handler {
	return telemetry.Handler(reg, pprof)
}

// Instrument wraps a Backend so every ObserveBatch and Query is counted per
// metric and timed into reg, labeled backend=name — SinkBolt topologies
// and demo drivers get serving telemetry without the backend knowing.
// When reg carries a Tracer it also opens a root span per operation:
// head-sampled ingest roots whose context rides the observation through
// every layer (and across the cluster's log), and always-started query
// roots kept when sampled or slow. Answers are byte-identical to the
// bare backend's (the conformance suite pins this); a nil registry
// returns be unchanged.
func Instrument(be Backend, reg *Telemetry, name string) Backend {
	return analytics.Instrument(be, reg, name)
}

// ---- Tracing (request spans and the slow-query log) ----

// Tracer samples, records and exports request traces: bounded in-memory
// rings of finished spans (Chrome trace-event JSON on /debug/traces)
// plus a slow-query log (/debug/slow). A nil *Tracer everywhere means
// "tracing off"; unsampled requests pay roughly a pointer check and one
// atomic increment per root.
type Tracer = trace.Tracer

// TraceConfig tunes a Tracer: SampleRate (0..1 head sampling),
// SlowThreshold (tail-keep + slow-log), ring capacities and the sampler
// seed (seeded runs sample deterministically).
type TraceConfig = trace.Config

// TraceContext is the portable (trace, span) reference that crosses
// layer and log boundaries — observations and query requests carry one,
// and the cluster router encodes it into log record headers.
type TraceContext = trace.Context

// TraceSpan is one timed operation within a trace.
type TraceSpan = trace.Span

// TraceAttr is one typed span attribute (TraceStr/TraceInt/TraceBool).
type TraceAttr = trace.Attr

// SlowQueryEntry is one slow-query log record: the root's name,
// duration and attributes plus per-stage child durations.
type SlowQueryEntry = trace.SlowEntry

// NewTracer returns a Tracer for cfg. Hand it to NewTelemetry: every
// subsystem wired with that registry traces into it.
func NewTracer(cfg TraceConfig) *Tracer { return trace.NewTracer(cfg) }

// TraceStr returns a string-valued span attribute.
func TraceStr(key, value string) TraceAttr { return trace.Str(key, value) }

// TraceInt returns an int-valued span attribute.
func TraceInt(key string, value int64) TraceAttr { return trace.Int(key, value) }

// TraceBool returns a bool-valued span attribute.
func TraceBool(key string, value bool) TraceAttr { return trace.Bool(key, value) }

// ---- Partitioned store cluster (multi-node serving over mqlog) ----

// StoreCluster is the partitioned store cluster: N single-threaded store
// nodes behind one mqlog ingest topic, with consumer-group ownership,
// scatter-gather queries and log-based recovery (see internal/dstore).
type StoreCluster = dstore.Cluster

// StoreClusterConfig tunes a StoreCluster (partitions, retention,
// per-node store config, batch sizes).
type StoreClusterConfig = dstore.Config

// StoreClusterStats aggregates a cluster's counters.
type StoreClusterStats = dstore.Stats

// ClusterNode is one cluster member: an event loop plus its local store.
type ClusterNode = dstore.Node

// ClusterRouter partitions ObserveBatch traffic onto the ingest log and
// answers queries by owner routing or scatter-gather.
type ClusterRouter = dstore.Router

// NewStoreCluster returns a cluster with no nodes; register metrics,
// then StartNode.
func NewStoreCluster(cfg StoreClusterConfig) (*StoreCluster, error) { return dstore.New(cfg) }

// ClusterBolt forwards a topology stream into a cluster's router.
//
// Deprecated: ClusterBolt is SinkBolt; use NewSinkBolt with any Backend
// (wrap it with Instrument for serving telemetry).
type ClusterBolt = engine.ClusterBolt

// NewClusterBolt returns a bolt forwarding into r; extract maps messages
// to observations (nil accepts Message.Value of type StoreObservation).
//
// Deprecated: use NewSinkBolt — a ClusterRouter is a Backend, and
// Instrument adds telemetry to any of them.
func NewClusterBolt(r *ClusterRouter, extract func(TupleMessage) (StoreObservation, bool)) (*ClusterBolt, error) {
	return engine.NewClusterBolt(r, extract)
}

// ReplayLog feeds the retained prefix of an mqlog topic into the store —
// the Lambda batch-layer recomputation (poison records are skipped).
func ReplayLog(st *SketchStore, topic *LogTopic) (uint64, error) {
	return store.Replay(st, topic)
}

// RebuildStore builds a fresh store from cfg and protos and replays the
// topic into it.
func RebuildStore(cfg SketchStoreConfig, protos map[string]StorePrototype, topic *LogTopic) (*SketchStore, uint64, error) {
	return store.Rebuild(cfg, protos, topic)
}

// ---- Lambda Architecture (Figure 1), store-backed ----

// Lambda is the Figure 1 architecture on the real subsystems: the master
// dataset is an mqlog topic, batch views are sealed stores recomputed up
// to frozen end-offset snapshots, the speed layer is a SketchStore (or,
// behind LambdaConfig.Cluster, a StoreCluster), and queries merge the two
// through CombineSnapshots — one code path for counters, cardinality,
// quantiles and top-k.
type Lambda = lambda.Architecture

// LambdaConfig tunes a Lambda (master topic geometry, batch/speed store
// configs, optional cluster speed layer).
type LambdaConfig = lambda.Config

// LambdaBatchInfo describes one completed batch recompute (version,
// frozen end offsets, applied count, retention truncation).
type LambdaBatchInfo = lambda.BatchInfo

// NewLambda returns a store-backed Lambda Architecture. Register metrics,
// then ObserveBatch/Query; RunBatch on the batch cadence.
func NewLambda(cfg LambdaConfig) (*Lambda, error) { return lambda.New(cfg) }

// FrozenStoreView is a sealed batch view: a store recomputed from the log
// prefix up to a frozen end-offset snapshot, closed to writes.
type FrozenStoreView = store.FrozenView

// FreezeStoreAt recomputes a sealed batch view of the topic's prefix
// [0, ends) — the Lambda batch layer as a standalone helper.
func FreezeStoreAt(cfg SketchStoreConfig, protos map[string]StorePrototype, topic *LogTopic, ends []uint64) (*FrozenStoreView, error) {
	return store.FreezeAt(cfg, protos, topic, ends)
}

// FreezeStoreAtFrom is FreezeStoreAt with a checkpoint fast path: a
// compatible snapshot in checkpointDir seeds the view and only the log
// suffix past its offsets replays (empty dir = full recompute).
func FreezeStoreAtFrom(cfg SketchStoreConfig, protos map[string]StorePrototype, topic *LogTopic, ends []uint64, checkpointDir string) (*FrozenStoreView, error) {
	return store.FreezeAtFrom(cfg, protos, topic, ends, checkpointDir)
}

// StoreCheckpointMeta stamps a checkpoint with the log position it
// covers (offsets, optional owned-partition set, optional floors).
type StoreCheckpointMeta = store.CheckpointMeta

// StoreCheckpointManifest describes a written checkpoint (geometry,
// record/byte counts, CRC, and its StoreCheckpointMeta fields).
type StoreCheckpointManifest = store.CheckpointManifest

// StoreCheckpointInfo summarizes a completed checkpoint write.
type StoreCheckpointInfo = store.CheckpointInfo

// WriteStoreCheckpoint snapshots every resident bucket of st into dir as
// a manifest + data file pair (atomic via temp+rename, CRC-framed).
func WriteStoreCheckpoint(st *SketchStore, dir string, meta StoreCheckpointMeta) (StoreCheckpointInfo, error) {
	return store.WriteCheckpoint(st, dir, meta)
}

// RestoreStoreCheckpoint rehydrates a checkpoint into an empty store
// with matching geometry and registered metrics; replay the log suffix
// past the manifest's offsets to catch up.
func RestoreStoreCheckpoint(st *SketchStore, dir string) (*StoreCheckpointManifest, error) {
	return store.RestoreCheckpoint(st, dir)
}

// ReadStoreCheckpointManifest loads dir's manifest without touching the
// data file — the cheap compatibility probe before a restore.
func ReadStoreCheckpointManifest(dir string) (*StoreCheckpointManifest, error) {
	return store.ReadCheckpointManifest(dir)
}

// ReplayLogPartitionTo is ReplayLogPartition with an explicit exclusive
// end bound — the offset-fenced replay batch views and speed-layer
// truncation are built on.
func ReplayLogPartitionTo(st *SketchStore, topic *LogTopic, pid int, from, end uint64) (store.ReplayStats, error) {
	return store.ReplayPartitionTo(st, topic, pid, from, end)
}

// LogReader is an end-offset-bounded sequential reader over one log
// partition (LogTopic.NewReader).
type LogReader = mqlog.Reader

// LambdaBolt sinks a topology stream into a Lambda architecture,
// dispatching every tuple to both the master log and the speed layer.
//
// Deprecated: LambdaBolt is SinkBolt; use NewSinkBolt with any Backend
// (wrap it with Instrument for serving telemetry).
type LambdaBolt = engine.LambdaBolt

// NewLambdaBolt returns a bolt sinking into arch; extract maps messages
// to observations (nil accepts Message.Value of type StoreObservation).
//
// Deprecated: use NewSinkBolt — a Lambda is a Backend, and Instrument
// adds telemetry to any of them.
func NewLambdaBolt(arch *Lambda, extract func(TupleMessage) (StoreObservation, bool)) (*LambdaBolt, error) {
	return engine.NewLambdaBolt(arch, extract)
}

// ---- HTTP serving tier (analyticsd: wire codec, edge cache, client) ----

// AnalyticsServer is the HTTP serving edge: the full Backend contract
// (register / observe / query / keys / stats under /v1/) over a JSON
// wire codec that round-trips all four synopsis families byte-exactly,
// plus the observability plane (/metrics, /debug/traces, /debug/slow,
// optional pprof) on the same port. Per-request deadlines arrive via
// the X-Analytics-Timeout header and propagate as context cancellation
// through the backend gather; remote trace contexts arrive via
// X-Analytics-Trace and are adopted into the server's tracer.
type AnalyticsServer = serve.Server

// AnalyticsServerConfig wires an AnalyticsServer: the Backend it fronts
// (required), an optional ReadCache, Telemetry registry, Tracer, and
// the default/maximum per-query deadlines.
type AnalyticsServerConfig = serve.Config

// NewAnalyticsServer returns a serving edge over cfg.Backend. Mount
// Handler() on your own http.Server; cmd/analyticsd is the packaged
// daemon.
func NewAnalyticsServer(cfg AnalyticsServerConfig) (*AnalyticsServer, error) {
	return serve.NewServer(cfg)
}

// AnalyticsClient is the client side of the serving API: a Backend
// whose backend lives across a socket, so conformance
// tests and dashboards point at a remote analyticsd unchanged. Register
// metrics with Register(name, MetricSpec) — or Sync to pull the
// server's schema — so the client can rebuild answer synopses.
type AnalyticsClient = serve.Client

// NewAnalyticsClient returns a client for the analyticsd at baseURL;
// nil hc uses http.DefaultClient.
func NewAnalyticsClient(baseURL string, hc *http.Client) *AnalyticsClient {
	return serve.NewClient(baseURL, hc)
}

// MetricSpec is the declarative, wire-serializable twin of a
// StorePrototype: family plus construction parameters (precision, seed,
// width/depth, k, universe), from which both ends of the wire
// materialize identical, merge-compatible synopses.
type MetricSpec = serve.ProtoSpec

// DistinctMetricSpec declares a HyperLogLog-backed distinct-count metric.
func DistinctMetricSpec(precision uint8, seed uint64) MetricSpec {
	return serve.DistinctSpec(precision, seed)
}

// FreqMetricSpec declares a CountMin-backed frequency metric.
func FreqMetricSpec(width, depth int, seed uint64) MetricSpec {
	return serve.FreqSpec(width, depth, seed)
}

// TopKMetricSpec declares a SpaceSaving-backed top-k metric.
func TopKMetricSpec(k int) MetricSpec { return serve.TopKSpec(k) }

// QuantileMetricSpec declares a q-digest-backed quantile metric over a
// [0, 2^logU) universe with compression factor k.
func QuantileMetricSpec(logU uint8, k uint64) MetricSpec {
	return serve.QuantileSpec(logU, k)
}

// Wire headers of the serving API: the per-request deadline budget and
// the propagated trace context.
const (
	AnalyticsTimeoutHeader = serve.TimeoutHeader
	AnalyticsTraceHeader   = serve.TraceHeader
)

// ReadCache is the serving edge's sealed-range query cache: answers for
// fully-sealed [From, To) ranges are cached and invalidated per metric
// when a write advances the open bucket (or lands below it). Exact for
// single-writer edges; see internal/rcache for the cluster caveat.
type ReadCache = rcache.Cache

// ReadCacheConfig sizes a ReadCache (bucket width — must match the
// backend store geometry — shard count, entry budget).
type ReadCacheConfig = rcache.Config

// ReadCacheStats is a point-in-time counter snapshot (hits, misses,
// evictions, invalidations, resident entries).
type ReadCacheStats = rcache.Stats

// NewReadCache returns a ReadCache; give it to an
// AnalyticsServerConfig and the edge checks it before every backend
// gather.
func NewReadCache(cfg ReadCacheConfig) (*ReadCache, error) { return rcache.New(cfg) }

// ---- Admission control (overload shedding and batched ingest) ----

// AdmissionController prices writes against token buckets (global,
// per-metric, per-tenant) and sheds what the budget cannot cover with
// a typed, retryable error. A lag-driven backpressure ladder halves
// the admitted rates per level as consumer lag or log disk pressure
// grows. A nil controller admits everything.
type AdmissionController = admission.Controller

// AdmissionConfig tunes an AdmissionController: Rate/Burst for the
// global bucket, MetricRate/TenantRate for the keyed buckets, and a
// Backpressure block wiring lag and disk signals.
type AdmissionConfig = admission.Config

// AdmissionBackpressure wires overload signals into an
// AdmissionController: consumer lag (e.g. ClusterRouter's consumer
// group) and log disk usage, sampled at most once per SampleEvery.
type AdmissionBackpressure = admission.BackpressureConfig

// AdmissionStats snapshots a controller's admitted/shed accounting,
// current backpressure level, and token balance.
type AdmissionStats = admission.Stats

// NewAdmissionController builds a controller from cfg.
func NewAdmissionController(cfg AdmissionConfig) (*AdmissionController, error) {
	return admission.New(cfg)
}

// AdmitBackend wraps be so every ObserveBatch first clears ctrl: a shed
// write returns an error matching ErrOverloaded (carrying
// a Retry-After via OverloadWait) and provably never reaches the
// backend — batches are admitted whole before a single observation is
// delegated. A nil controller returns be unchanged.
func AdmitBackend(be Backend, ctrl *AdmissionController) Backend {
	return analytics.Admit(be, ctrl)
}

// ErrOverloaded is the sentinel every shed write matches with
// errors.Is — locally from an AdmissionController, or rehydrated by
// AnalyticsClient from an HTTP 429 + Retry-After exchange.
var ErrOverloaded = admission.ErrOverloaded

// Overload is the typed shed error: the quoted RetryAfter plus which
// budget (scope/key) rejected the write.
type Overload = admission.Overload

// OverloadWait extracts the quoted Retry-After from a shed error; ok
// reports whether err carries an Overload at all.
func OverloadWait(err error) (wait time.Duration, ok bool) {
	return admission.Wait(err)
}
