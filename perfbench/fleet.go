package main

import (
	"fmt"
	"net/http"
	"sort"
	"time"
)

// The fleet workload: an hcapp-serve coordinator and two single-slot
// workers. hcappsim -coordinator runs the suite batch cold for two seeds,
// which simulates on the workers and fills the fleet cache, then repeats
// those batches hot, where the cache answers every item.
const (
	fleetWorkers   = 2
	fleetSetupRuns = 21
	fleetMinHot    = 20
)

// fleet is a launched coordinator with its workers and, in traced runs,
// a timing proxy in front of each worker.
type fleet struct {
	coord   *server
	workers []*child
	urls    []string // worker base URLs as launched
	proxies []*timingProxy
}

func (f *fleet) stop() {
	for _, w := range f.workers {
		w.kill()
	}
	if f.coord != nil {
		f.coord.c.kill()
	}
	for _, p := range f.proxies {
		p.close()
	}
}

// workerInfo is a row of GET /v1/cluster/workers.
type workerInfo struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
	Live bool   `json:"live"`
}

// launchFleet starts the coordinator and workers and returns the time
// from the first launch until /readyz is 200 and every worker is
// registered and live.
func (e *env) launchFleet(traced bool) (*fleet, time.Duration, error) {
	f := &fleet{}
	// Ports for the coordinator, the workers and their proxies, all
	// picked at once so no two collide.
	ports, err := freePorts(1 + 2*fleetWorkers)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	// A coordinator is not ready until a worker registers: wait for
	// liveness first.
	coord, _, err := e.launchServer("coordinator", ports[0], answers("/healthz"), "-role", "coordinator")
	if err != nil {
		f.stop()
		return nil, 0, err
	}
	f.coord = coord
	want := map[string]string{} // worker id -> advertised URL
	nonce := time.Now().UnixNano()
	for i := 0; i < fleetWorkers; i++ {
		port := ports[1+i]
		url := fmt.Sprintf("http://127.0.0.1:%d", port)
		id := fmt.Sprintf("perfbench-%d-w%d", nonce, i)
		args := []string{"-role", "worker", "-addr", fmt.Sprintf("127.0.0.1:%d", port),
			"-coordinator", coord.base, "-workers", "1", "-worker-id", id}
		advertise := url
		if traced {
			p, err := startProxy(ports[1+fleetWorkers+i], url)
			if err != nil {
				f.stop()
				return nil, 0, err
			}
			f.proxies = append(f.proxies, p)
			advertise = p.url
			args = append(args, "-advertise", advertise)
		}
		w, err := e.procs.start("worker", false, e.serve(), args...)
		if err != nil {
			f.stop()
			return nil, 0, err
		}
		f.workers = append(f.workers, w)
		f.urls = append(f.urls, url)
		want[id] = advertise
	}
	cl := newClient()
	defer cl.CloseIdleConnections()
	err = waitFor(append([]*child{coord.c}, f.workers...), 20*time.Second, "every worker registered", func() bool {
		if !answers("/readyz")(cl, coord.base) {
			return false
		}
		var list struct {
			Workers []workerInfo `json:"workers"`
		}
		if getJSON(cl, coord.base+"/v1/cluster/workers", &list) != nil {
			return false
		}
		live := 0
		for _, w := range list.Workers {
			if w.Live && want[w.ID] == w.Addr {
				live++
			}
		}
		return live == len(want)
	})
	took := time.Since(t0)
	if err != nil {
		f.stop()
		return nil, 0, err
	}
	return f, took, nil
}

// verifyFleet confirms every node is a live process of the binary just built.
func (e *env) verifyFleet(cl *http.Client, f *fleet) error {
	if err := e.verifyIdentity(cl, f.coord); err != nil {
		return err
	}
	for i, w := range f.workers {
		if err := e.verifyIdentity(cl, &server{c: w, base: f.urls[i]}); err != nil {
			return err
		}
	}
	return nil
}

// cpu is the nodes' user+sys CPU seconds so far.
func (f *fleet) cpu() (float64, error) {
	total := 0.0
	for _, c := range append([]*child{f.coord.c}, f.workers...) {
		s, err := c.cpuNow()
		if err != nil {
			return 0, err
		}
		total += s
	}
	return total, nil
}

// rss is the nodes' summed peak RSS.
func (f *fleet) rss() (float64, error) {
	total := 0.0
	for _, c := range append([]*child{f.coord.c}, f.workers...) {
		s, err := c.peakRSSNow()
		if err != nil {
			return 0, err
		}
		total += s
	}
	return total, nil
}

// fleetPass runs the cold then hot closed loop of fleet batches for d.
func fleetPass(e *env, d time.Duration, tr *tracer) *report {
	r := newReport()
	var f *fleet
	var setups []float64
	for i := 0; i < fleetSetupRuns; i++ {
		fl, took, err := e.launchFleet(tr != nil)
		if err != nil {
			r.fail("launch fleet: %v", err)
			return r
		}
		setups = append(setups, took.Seconds())
		if i < fleetSetupRuns-1 {
			fl.stop()
			continue
		}
		f = fl
	}
	defer f.stop()
	r.set("setup_s", median(setups), fmt.Sprintf("median of %d launches to /readyz 200 with %d workers registered", fleetSetupRuns, fleetWorkers))
	cl := newClient()
	defer cl.CloseIdleConnections()
	if err := e.verifyFleet(cl, f); err != nil {
		r.fail("%v", err)
		return r
	}

	seeds := []int64{e.seed, e.seed + 1}
	fleetArgs := func(seed int64) []string {
		return append(suiteArgs(seed), "-coordinator", f.coord.base)
	}
	var cold, hot []*batch
	start := time.Now()
	due := start
	for k, seed := range seeds {
		b := e.runBatch(tr, "cluster.batch", fmt.Sprintf("cold-%d", k), due, seed, fleetArgs(seed)...)
		cold = append(cold, b)
		due = b.End
	}
	// CPU is counted over the hot phase only: a hot batch is one kind of
	// operation, while the two cold batches' engine work would be spread
	// over however many hot batches fit in the run.
	cpu0, err := f.cpu()
	if err != nil {
		r.fail("%v", err)
		return r
	}
	// The hot phase lasts d on its own. Were the cold batches inside d, a
	// slower host would both lengthen them and shorten the hot phase, and
	// sim_ms_per_s would move half again as much as the host did.
	hotStart := time.Now()
	for k := 0; time.Since(hotStart) < d || k < fleetMinHot; k++ {
		seed := seeds[k%len(seeds)]
		b := e.runBatch(tr, "cluster.batch", fmt.Sprintf("hot-%d", k), due, seed, fleetArgs(seed)...)
		hot = append(hot, b)
		if b.Err != nil {
			break
		}
		due = b.End
	}
	cpu1, err1 := f.cpu()
	nodeRSS, err2 := f.rss()
	if err := firstErr(err1, err2); err != nil {
		r.fail("%v", err)
		return r
	}
	var slices []sliceRec
	for _, p := range f.proxies {
		slices = append(slices, p.recorded()...)
	}
	f.stop()

	// Checks, outside the timed region: every batch against the facade's
	// rendering of its seed, and the first seed against a standalone
	// hcappsim run, so fleet output == standalone output byte for byte.
	ref := map[int64]*suiteRef{}
	for _, s := range seeds {
		rf, err := e.ref(s)
		if err != nil {
			r.fail("%v", err)
			return r
		}
		ref[s] = rf
	}
	alone := e.runBatch(nil, "", "", time.Now(), seeds[0], suiteArgs(seeds[0])...)
	switch {
	case alone.Err != nil:
		r.fail("standalone batch: %v", alone.Err)
	case alone.Out != ref[seeds[0]].Render:
		r.fail("standalone hcappsim output for seed %d differs from the facade's rendering", seeds[0])
	default:
		r.ok()
	}
	all := append(append([]*batch(nil), cold...), hot...)
	var simMS, hotCPU, clientRSS float64
	var hotLat, coldLat []float64
	good := 0
	for _, b := range all {
		switch {
		case b.Err != nil:
			r.fail("fleet batch seed %d: %v", b.Seed, b.Err)
			continue
		case b.Out != ref[b.Seed].Render:
			r.fail("fleet batch seed %d: output differs from standalone", b.Seed)
			continue
		}
		r.ok()
		good++
		simMS += ref[b.Seed].SimMS
		clientRSS = max(clientRSS, b.RSSMB)
	}
	for _, b := range hot {
		if b.Err == nil {
			hotLat = append(hotLat, b.latency())
			hotCPU += b.CPUS
		}
	}
	for _, b := range cold {
		if b.Err == nil {
			coldLat = append(coldLat, b.latency())
		}
	}
	if good == 0 || len(hotLat) == 0 {
		return r
	}
	wall := all[len(all)-1].End.Sub(start).Seconds()
	r.set("sim_ms_per_s", simMS/wall, fmt.Sprintf("%d cold + %d hot batches in %.3f s", len(cold), len(hot), wall))
	r.set("latency_p50_s", median(hotLat), "hot batch wall time")
	r.setTail("latency_tail_s", windowTail(hotLat))
	r.set("cpu_s", ((cpu1-cpu0)+hotCPU)/float64(len(hotLat)), "coordinator + workers + hcappsim user+sys CPU per hot batch")
	r.set("peak_rss_mb", nodeRSS+clientRSS, "coordinator + workers VmHWM + largest hcappsim peak RSS")
	r.set("cluster.batch_cold_s", median(coldLat), fmt.Sprintf("n=%d", len(coldLat)))
	r.set("cluster.batch_hot_s", median(hotLat), fmt.Sprintf("n=%d", len(hotLat)))
	if tr != nil {
		fleetLayers(r, tr, cold, all, slices, ref)
	}
	return r
}

// fleetLayers derives the cluster metrics from the proxies' slices.
func fleetLayers(r *report, tr *tracer, cold, all []*batch, slices []sliceRec, ref map[int64]*suiteRef) {
	sort.Slice(slices, func(i, j int) bool { return slices[i].Start.Before(slices[j].Start) })
	var durs []float64
	var bytes int64
	items, dups := 0, 0
	seen := map[string]bool{}
	for _, s := range slices {
		durs = append(durs, s.End.Sub(s.Start).Seconds())
		bytes += s.Bytes
		items += s.Items
		if seen[s.Key] {
			dups++
		}
		seen[s.Key] = true
		// Parent each slice under the batch in flight when it started.
		parent, trace := 0, "slice"
		for _, b := range all {
			if !s.Start.Before(b.Due) && s.Start.Before(b.End) {
				parent, trace = b.SpanID, b.Trace
				break
			}
		}
		tr.add(parent, trace, "cluster.slice", s.Start, s.End)
	}
	submitted := 0
	for _, b := range all {
		if b.Err == nil {
			submitted += len(ref[b.Seed].Runs)
		}
	}
	var ivs [][2]int64
	for _, s := range slices {
		ivs = append(ivs, [2]int64{s.Start.UnixNano(), s.End.UnixNano()})
	}
	var coldWall, gaps []float64
	for _, b := range cold {
		lo, hi := b.Due.UnixNano(), b.End.UnixNano()
		coldWall = append(coldWall, b.End.Sub(b.Due).Seconds())
		gaps = append(gaps, time.Duration((hi-lo)-covered(lo, hi, ivs)).Seconds())
	}
	if len(slices) == 0 || items == 0 {
		r.fail("the timing proxies saw no slice: fleet batches never reached a worker")
		return
	}
	r.set("cluster.slice_p50_s", median(durs), fmt.Sprintf("slice round trip at the proxy, n=%d", len(durs)))
	r.set("cluster.worker_busy_frac", sum(durs)/(fleetWorkers*sum(coldWall)), "slice time / (workers x cold batch wall)")
	r.set("cluster.dispatch_gap_s", median(gaps), "cold batch wall time with no slice in flight")
	r.set("cluster.wire_bytes_per_item", float64(bytes)/float64(items), fmt.Sprintf("%d bytes / %d forwarded items", bytes, items))
	r.set("cluster.cache_hit_frac", 1-float64(items)/float64(submitted), fmt.Sprintf("1 - %d forwarded / %d submitted items", items, submitted))
	r.set("cluster.hedge_frac", float64(dups)/float64(len(slices)), fmt.Sprintf("%d duplicate slice posts / %d slices", dups, len(slices)))
}
