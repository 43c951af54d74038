// Package metrics is the observability surface of the multi-tenant learning
// service: lock-free counters, exponential-bucket latency histograms with
// quantile estimation, windowed rate meters, and pull-style gauges, gathered
// in a Registry that renders a JSON snapshot and an HTTP endpoint.
//
// Everything on the hot path (Counter.Add, Histogram.Observe, Meter.Add) is
// a handful of atomic operations: a serving fleet records one histogram
// observation per wire frame and thousands of counter bumps per second, so
// none of these take a lock. Snapshots are read-mostly and may be off by
// in-flight updates; that skew is inherent to monitoring and harmless.
package metrics

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic count.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
//
//logicreg:hotpath
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
//
//logicreg:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current count.
//
//logicreg:hotpath
func (c *Counter) Load() int64 { return c.v.Load() }

// histBuckets is the bucket count of a latency histogram: bucket i counts
// observations in [2^i, 2^(i+1)) microseconds, so 32 buckets span 1µs to
// ~71min — wider than any latency this service can produce.
const histBuckets = 32

// Histogram counts duration observations in exponential buckets. Quantiles
// are estimated from the bucket counts with linear interpolation inside the
// hit bucket, accurate to a factor of 2 in the worst case and much better
// in practice (latencies cluster, and buckets are narrow where they do).
// The maximum is tracked exactly, not estimated, and caps every quantile.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // microseconds
	max     atomic.Int64 // microseconds
}

// bucketOf maps a duration to its bucket index.
//
//logicreg:hotpath
func bucketOf(d time.Duration) int {
	us := d.Microseconds()
	if us < 1 {
		return 0
	}
	b := bits.Len64(uint64(us)) - 1
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Observe records one duration.
//
//logicreg:hotpath
func (h *Histogram) Observe(d time.Duration) {
	us := d.Microseconds()
	h.buckets[bucketOf(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(us)
	for m := h.max.Load(); us > m; m = h.max.Load() {
		if h.max.CompareAndSwap(m, us) {
			break
		}
	}
}

// Snapshot captures the histogram for quantile math and rendering.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Count = h.count.Load()
	s.SumMicros = h.sum.Load()
	s.MaxMicros = h.max.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count     int64
	SumMicros int64
	MaxMicros int64
	Buckets   [histBuckets]int64
}

// Quantile estimates the q-quantile (0 < q <= 1) in seconds. It never
// exceeds the exact maximum, and Quantile(1) is the maximum. With no
// observations it returns 0.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	if rank < 1 {
		rank = 1
	}
	maxUs := float64(s.MaxMicros)
	var seen float64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		if seen+float64(n) >= rank {
			// Linear interpolation inside [2^i, 2^(i+1)) microseconds. The
			// top occupied bucket holds the maximum and ends there.
			lo := math.Pow(2, float64(i))
			hi := math.Min(2*lo, maxUs)
			lo = math.Min(lo, hi)
			frac := (rank - seen) / float64(n)
			return (lo + frac*(hi-lo)) / 1e6
		}
		seen += float64(n)
	}
	return maxUs / 1e6
}

// Mean returns the mean observation in seconds (0 with no observations).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.SumMicros) / float64(s.Count) / 1e6
}

// Stats renders the snapshot: the count, the mean, the p50/p90/p99
// estimates and the exact maximum.
func (s HistogramSnapshot) Stats() HistogramStats {
	return HistogramStats{
		Count: s.Count,
		Mean:  s.Mean(),
		P50:   s.Quantile(0.50),
		P90:   s.Quantile(0.90),
		P99:   s.Quantile(0.99),
		Max:   float64(s.MaxMicros) / 1e6,
	}
}

// meterSlots is the ring size of a Meter; the rate window must be shorter.
const meterSlots = 64

// Meter measures a windowed event rate: a ring of per-second slots, summed
// over the trailing window on read. Adds are two atomics in the common case
// (same-second hits); slot recycling CASes the slot's second forward and
// zeroes its count.
type Meter struct {
	secs   [meterSlots]atomic.Int64
	counts [meterSlots]atomic.Int64
}

// Add records n events now.
//
//logicreg:hotpath
func (m *Meter) Add(n int64) {
	now := time.Now().Unix()
	i := int(now % meterSlots)
	sec := m.secs[i].Load()
	if sec != now {
		// This slot belongs to an expired second: claim it. The single
		// winner zeroes the count; losers just add to the fresh slot.
		if m.secs[i].CompareAndSwap(sec, now) {
			m.counts[i].Store(0)
		}
	}
	m.counts[i].Add(n)
}

// Rate returns events/second averaged over the trailing window seconds
// (clamped to the ring capacity), excluding the in-progress second so a
// fresh second does not read as a rate collapse.
func (m *Meter) Rate(window int) float64 {
	if window < 1 {
		window = 1
	}
	if window > meterSlots-1 {
		window = meterSlots - 1
	}
	now := time.Now().Unix()
	var total int64
	for i := 0; i < meterSlots; i++ {
		sec := m.secs[i].Load()
		if sec >= now-int64(window) && sec < now {
			total += m.counts[i].Load()
		}
	}
	return float64(total) / float64(window)
}

// GaugeFunc is a pull-style metric: sampled at snapshot time. Must be safe
// for concurrent calls.
type GaugeFunc func() float64

// Registry is a named collection of metrics. Metric constructors are
// idempotent per name, so independent components can share a registry
// without coordinating declaration order.
type Registry struct {
	start time.Time

	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
	meters   map[string]*Meter
	gauges   map[string]GaugeFunc
}

// NewRegistry returns an empty registry; uptime counts from now.
func NewRegistry() *Registry {
	return &Registry{
		start:    time.Now(),
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
		meters:   make(map[string]*Meter),
		gauges:   make(map[string]GaugeFunc),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Meter returns the named meter, creating it on first use.
func (r *Registry) Meter(name string) *Meter {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.meters[name]
	if !ok {
		m = &Meter{}
		r.meters[name] = m
	}
	return m
}

// Gauge registers (or replaces) the named pull-style gauge.
func (r *Registry) Gauge(name string, f GaugeFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges[name] = f
}

// RateWindow is the trailing window, in seconds, meters are averaged over
// in snapshots.
const RateWindow = 10

// HistogramStats is the rendered form of one histogram in a snapshot.
type HistogramStats struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean_s"`
	P50   float64 `json:"p50_s"`
	P90   float64 `json:"p90_s"`
	P99   float64 `json:"p99_s"`
	Max   float64 `json:"max_s"`
}

// Snapshot is a point-in-time view of every metric in a registry.
type Snapshot struct {
	At         time.Time                 `json:"at"`
	UptimeSecs float64                   `json:"uptime_s"`
	Counters   map[string]int64          `json:"counters"`
	Gauges     map[string]float64        `json:"gauges"`
	Rates      map[string]float64        `json:"rates_per_s"`
	Histograms map[string]HistogramStats `json:"histograms"`
}

// Snapshot renders every metric. Gauge functions run while the registry
// lock is held; keep them cheap and never have them call back into the
// registry's constructors.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		At:         time.Now(),
		UptimeSecs: time.Since(r.start).Seconds(),
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Rates:      make(map[string]float64, len(r.meters)),
		Histograms: make(map[string]HistogramStats, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, f := range r.gauges {
		s.Gauges[name] = f()
	}
	for name, m := range r.meters {
		s.Rates[name] = m.Rate(RateWindow)
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot().Stats()
	}
	return s
}
