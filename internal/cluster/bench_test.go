package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
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

// BenchmarkClientRunRemoteHot prices one fleet-cache hit the way
// hcappsim pays it: Client.RunRemote against an in-process coordinator
// whose cache already holds the item, so an op is one loopback round
// trip with the JSON encode and decode on both ends. "lean" is what an
// evaluator without TrackEnergy asks for; "energy" also carries the
// ledger. wire_B/op is the reply body size. Run with
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
	spec, err := testItems(b, 1)[0].Spec.RunSpec()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	// The cold run fills the fleet cache; every timed op is a hit.
	if _, err := cl.RunRemote(ctx, p.Seed, p.TargetDurNS, p.MaxDurFactor, p.FixedV, false, spec); err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name   string
		energy bool
	}{{"lean", false}, {"energy", true}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			wire.Store(0)
			for i := 0; i < b.N; i++ {
				if _, err := cl.RunRemote(ctx, p.Seed, p.TargetDurNS, p.MaxDurFactor, p.FixedV, bc.energy, spec); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(wire.Load())/float64(b.N), "wire_B/op")
		})
	}
}
