package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"

	"hcapp/internal/experiment"
)

// countingWriter counts the body bytes a handler writes.
type countingWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (w countingWriter) Write(p []byte) (int, error) {
	w.n.Add(int64(len(p)))
	return w.ResponseWriter.Write(p)
}

// BenchmarkClientRunRemoteHot prices fleet-cache hits the way hcappsim
// pays them: Client.RunRemote against an in-process coordinator whose
// cache already holds every item, so an op is one loopback round trip
// with the JSON encode and decode on both ends. "lean" is one spec the
// way an evaluator without TrackEnergy asks for it; "energy" also
// carries the ledger; "batch" is a whole lean batch of eight specs in
// one request, the shape an evaluator's RunSpecs sends. wire_B/op is
// the reply body size; wire_B/item and allocs/item divide the op by its
// specs. Run with
//
//	go test -run NONE -bench ClientRunRemoteHot ./internal/cluster
func BenchmarkClientRunRemoteHot(b *testing.B) {
	c := NewCoordinator(CoordinatorConfig{Logf: b.Logf})
	registerWorker(b, c, startWorker(b, "w-a"))
	var wire atomic.Int64
	h := c.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(countingWriter{w, &wire}, r)
	}))
	b.Cleanup(ts.Close)
	cl, err := NewClient(ts.URL)
	if err != nil {
		b.Fatal(err)
	}
	p := testParams()
	items := testItems(b, 8)
	specs := make([]experiment.RunSpec, len(items))
	for i, it := range items {
		if specs[i], err = it.Spec.RunSpec(); err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	// The cold run fills the fleet cache; every timed op is a hit.
	if _, err := cl.RunRemote(ctx, p.Seed, p.TargetDurNS, p.MaxDurFactor, p.FixedV, false, specs); err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name   string
		energy bool
		specs  []experiment.RunSpec
	}{{"lean", false, specs[:1]}, {"energy", true, specs[:1]}, {"batch", false, specs}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			wire.Store(0)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < b.N; i++ {
				if _, err := cl.RunRemote(ctx, p.Seed, p.TargetDurNS, p.MaxDurFactor, p.FixedV, bc.energy, bc.specs); err != nil {
					b.Fatal(err)
				}
			}
			runtime.ReadMemStats(&m1)
			items := float64(b.N * len(bc.specs))
			b.ReportMetric(float64(wire.Load())/float64(b.N), "wire_B/op")
			b.ReportMetric(float64(wire.Load())/items, "wire_B/item")
			b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/items, "allocs/item")
		})
	}
}
