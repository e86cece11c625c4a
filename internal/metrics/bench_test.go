package metrics

import (
	"testing"
)

// The disabled configuration must be ~free: a nil registry hands out nil
// metrics, and recording to them is a single nil check. These benchmarks
// prove the RPC hot path pays nothing when metrics are off.

func BenchmarkNilHistogramObserve(b *testing.B) {
	var h *Histogram
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func BenchmarkNilRegistryHistogram(b *testing.B) {
	var r *Registry
	for i := 0; i < b.N; i++ {
		r.Histogram("x").Observe(int64(i))
	}
}

// Enabled-path costs, for comparison.

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func BenchmarkHistogramQuantile(b *testing.B) {
	var h Histogram
	for i := int64(0); i < 10000; i++ {
		h.Observe(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Quantile(0.99)
	}
}
