package explore

import (
	"testing"
	"time"
)

var benchSink *Result

// BenchmarkExploreMatrix explores every 2- and 3-master protocol multiset
// under every mode per iteration (231 configurations, the Dragon mixes the
// reduction rejects included) and reports the search rate in states/s.
func BenchmarkExploreMatrix(b *testing.B) {
	var cfgs []Config
	for _, kinds := range multisets(2, MaxMasters) {
		for _, mode := range allModes {
			cfgs = append(cfgs, Config{Protocols: kinds, Mode: mode})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	states := 0
	for i := 0; i < b.N; i++ {
		for _, cfg := range cfgs {
			res, err := Explore(cfg)
			if err != nil {
				continue
			}
			states += res.States
			benchSink = res
		}
	}
	b.ReportMetric(float64(states)/time.Since(start).Seconds(), "states/s")
}
