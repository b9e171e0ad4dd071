package pregel

import (
	"testing"

	"rheem/internal/core"
	"rheem/internal/datagen"
	"rheem/internal/platform/driverutil"
)

// BenchmarkPageRankBSP measures the superstep machinery end to end.
func BenchmarkPageRankBSP(b *testing.B) {
	edges := datagen.Graph(2000, 4, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Run(PageRankProgram{Iterations: 10, Damping: 0.85}, edges, 4, driverutil.Latency{}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConnectedComponents measures min-label propagation.
func BenchmarkConnectedComponents(b *testing.B) {
	base := datagen.Graph(2000, 3, 2)
	edges := make([]core.Edge, 0, len(base)*2)
	for _, e := range base {
		edges = append(edges, e, core.Edge{Src: e.Dst, Dst: e.Src})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Run(ConnectedComponentsProgram{}, edges, 4, driverutil.Latency{}, nil); err != nil {
			b.Fatal(err)
		}
	}
}
