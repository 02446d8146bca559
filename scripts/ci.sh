#!/bin/sh
# Tier-1 gate, mirroring `make ci` for environments without make:
# formatting, vet, build, and the race-enabled test suite.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:"
	echo "$unformatted"
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

# The fleet scheduler, its serve integration, and the chaos injector
# are the most concurrency-heavy packages; run them race-enabled one
# extra time with count=1 so caching never masks a racy interleaving.
# This pass covers the breaker, hedging, and backoff tests too.
echo "== cluster packages under -race (uncached) =="
go test -race -count=1 ./internal/cluster ./internal/server ./internal/chaos ./internal/tracing
# An evaluator's trace sets are shared by every engine it builds; a
# 4-wide batch of one combo's specs must only ever read them.
go test -race -count=1 -run TestSharedTraceSetsConcurrentRuns ./internal/experiment

# The step-overhead contracts compare inlined hot paths; race
# instrumentation disables that inlining, so they skip under -race and
# run here without it. The parallel-speedup contract needs undistorted
# wall clocks too (it self-skips on hosts with fewer than 4 CPUs).
echo "== timing guards (no race) =="
go test -run TestInstrumentedStepOverhead -count=1 .
go test -run TestEnergyLedgerStepOverhead -count=1 .
go test -run TestFaultInjectionStepOverhead -count=1 ./internal/sched
go test -run TestRunnerParallelSpeedup -count=1 ./internal/experiment

# Hot-path bench gate: the stride gate enforces the headline contracts
# on the Fig. 5 workload at a fixed rail (the exact strided-fraction
# floor, fixed-step and strided ns/step budgets normalised by a host
# probe timed in the same trials, zero allocations per steady-state
# step, bitwise-identical traces) and appends the measured row to the
# BENCH_step.json history. The sched-package zero-alloc guard
# re-checks the fully tracked step loop and an observed strided run
# directly.
echo "== hot-path bench gate (no race) =="
# The row names the commit; -dirty marks other uncommitted changes. The
# history file itself is left out of that test: every run appends to it.
bench_commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
if ! git diff --quiet HEAD -- . ':!BENCH_step.json' 2>/dev/null; then
	bench_commit="$bench_commit-dirty"
fi
HCAPP_BENCH_JSON="$PWD/BENCH_step.json" HCAPP_BENCH_COMMIT="$bench_commit" \
	go test -run TestStrideSpeedupGate -count=1 ./internal/sched
go test -run TestStepSteadyStateZeroAllocs -count=1 ./internal/sched
echo "bench history, latest row:"
tail -n 10 BENCH_step.json

# Parallel determinism: the suite sharded across 4 workers must emit
# byte-identical output to a sequential run of the same binary. The
# energy experiment rides along so the attribution ledger is held to the
# same any-width guarantee.
echo "== parallel determinism diff =="
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/hcappsim" ./cmd/hcappsim
"$tmp/hcappsim" -experiment fig4,fig5,fig10,energy -dur 1 -workers 1 >"$tmp/seq.out"
"$tmp/hcappsim" -experiment fig4,fig5,fig10,energy -dur 1 -workers 4 >"$tmp/par.out"
diff -u "$tmp/seq.out" "$tmp/par.out"
echo "parallel output identical"

# Report determinism: the paper-vs-measured report must exit 0 at a
# 2 ms horizon (its horizon-guarded shape checks report a skip there,
# not a failure) and be byte-identical at 1 and 4 workers.
echo "== report determinism diff =="
"$tmp/hcappsim" report -dur 2 -workers 1 >"$tmp/report-seq.md"
"$tmp/hcappsim" report -dur 2 -workers 4 >"$tmp/report-par.md"
diff -u "$tmp/report-seq.md" "$tmp/report-par.md"
echo "report passes and is identical at 1 and 4 workers"

# Stride determinism: striding through steady-state regions is an
# execution detail, never a model change. A binary built with the
# hcapp_fixedstep tag never strides; the ENTIRE experiment registry
# (plus the seed sweep, which "all" excludes for cost) must emit
# byte-identical output from it and from the default build. The
# registry runs at a 2 ms horizon because the "checks" shape suite
# needs burst statistics a 1 ms run cannot provide.
echo "== fixed-step reference diff (full registry, seeds, trace and tune) =="
go build -tags hcapp_fixedstep -o "$tmp/hcappsim-fixed" ./cmd/hcappsim
"$tmp/hcappsim-fixed" -experiment all -dur 2 -workers 1 >"$tmp/all-fixed.out"
"$tmp/hcappsim" -experiment all -dur 2 -workers 1 >"$tmp/all-strided.out"
diff -u "$tmp/all-fixed.out" "$tmp/all-strided.out"
"$tmp/hcappsim-fixed" -experiment seeds -dur 1 -workers 1 >"$tmp/seeds-fixed.out"
"$tmp/hcappsim" -experiment seeds -dur 1 -workers 1 >"$tmp/seeds-strided.out"
diff -u "$tmp/seeds-fixed.out" "$tmp/seeds-strided.out"
# The trace and tune subcommands drive engines directly rather than
# through the experiment registry, so they are diffed on their own. Fig. 2
# runs 12 ms: its 10 ms window emits no rows in a shorter trace. Fig. 3's
# sampler replays every stride step by step; the fixed rail and the
# Burst-Burst HCAPP run both stride, so they exercise that replay.
for args in "trace -fig 1 -dur 1" "trace -fig 2 -dur 12" "trace -fig 3 -scheme hcapp -dur 1" \
	"trace -fig 3 -dur 2" "trace -fig 3 -combo Burst-Burst -scheme hcapp -dur 2" \
	"tune -mode probe -dur 1" "tune -mode pid -dur 1"; do
	"$tmp/hcappsim-fixed" $args >"$tmp/sub-fixed.out"
	"$tmp/hcappsim" $args >"$tmp/sub-strided.out"
	diff -u "$tmp/sub-fixed.out" "$tmp/sub-strided.out"
done
echo "strided output identical to the fixed-step build across every experiment id and the trace/tune subcommands"

# Pinned bytes: the fixed-versus-strided diffs above cannot see a change
# both builds share, so the drivers that reduce power traces outside the
# evaluator's run path are held to committed digests of their output.
echo "== output digests (scripts/output-digests.txt) =="
grep -v '^#' scripts/output-digests.txt | while read -r want args; do
	got="$("$tmp/hcappsim" $args | sha256sum | cut -d' ' -f1)"
	if [ "$got" != "$want" ]; then
		echo "hcappsim $args: output digest $got, want $want"
		exit 1
	fi
done
echo "every pinned output matches its digest"

# Examples: every examples/* program, built both ways, must print the
# same bytes. Custom topologies stride like the paper package, so this
# is their fixed-versus-strided diff, and it keeps the facade examples
# building and running.
echo "== examples: fixed-step reference diff =="
for ex in examples/*/; do
	name="$(basename "$ex")"
	go build -o "$tmp/ex-$name" "./$ex"
	go build -tags hcapp_fixedstep -o "$tmp/ex-$name-fixed" "./$ex"
	"$tmp/ex-$name-fixed" >"$tmp/ex-fixed.out"
	"$tmp/ex-$name" >"$tmp/ex-strided.out"
	diff -u "$tmp/ex-fixed.out" "$tmp/ex-strided.out"
done
echo "every example prints the same output from the fixed-step and default builds"

# Fleet determinism: the same suite executed on a coordinator with two
# workers must diff clean against the sequential standalone output, with
# mixed-priority clients hammering the fleet concurrently.
echo "== cluster determinism diff (coordinator + 2 workers) =="
go build -o "$tmp/hcapp-serve" ./cmd/hcapp-serve
# A client started before the coordinator listens: hcappsim sends no
# readiness probe, so its first batch's retries (connection refused,
# then 503 until a worker registers) must absorb the fleet's boot.
"$tmp/hcappsim" -experiment fig7 -dur 1 -workers 2 \
	-coordinator http://127.0.0.1:18080 -tenant ci-early >"$tmp/fleet-early.out" &
client_early=$!
sleep 1
"$tmp/hcapp-serve" -role coordinator -addr 127.0.0.1:18080 &
coord_pid=$!
"$tmp/hcapp-serve" -role worker -addr 127.0.0.1:18081 -coordinator http://127.0.0.1:18080 &
w1_pid=$!
"$tmp/hcapp-serve" -role worker -addr 127.0.0.1:18082 -coordinator http://127.0.0.1:18080 &
w2_pid=$!
trap 'kill $client_early $coord_pid $w1_pid $w2_pid 2>/dev/null; rm -rf "$tmp"' EXIT
wait $client_early
"$tmp/hcappsim" -experiment fig7 -dur 1 -workers 1 >"$tmp/solo-early.out"
diff -u "$tmp/solo-early.out" "$tmp/fleet-early.out"
echo "a client started before the coordinator matches standalone"

# Both workers register before the next clients start, so the cold
# batches have the whole fleet to spread over (a client's first batch
# goes out as soon as one worker is registered).
for _ in $(seq 100); do
	live="$(curl -fsS http://127.0.0.1:18080/v1/cluster/workers 2>/dev/null | grep -o '"live":true' | wc -l)"
	[ "$live" = 2 ] && break
	sleep 0.1
done

# Two concurrent clients in different priority classes; each must match
# the standalone output byte for byte.
"$tmp/hcappsim" -experiment fig4,fig5,energy -dur 1 -workers 2 \
	-coordinator http://127.0.0.1:18080 -priority interactive -tenant ci-a >"$tmp/fleet-a.out" &
client_a=$!
"$tmp/hcappsim" -experiment fig10 -dur 1 -workers 2 \
	-coordinator http://127.0.0.1:18080 -priority batch -tenant ci-b >"$tmp/fleet-b.out" &
client_b=$!
wait $client_a
wait $client_b
# Each client sends every RunSpecs batch as one request, and dispatch
# stripes it over the live workers least loaded first: both workers must
# have run items by now. A worker's own engine-stage histogram counts
# the items it executed.
worker_engines() {
	curl -fsS "http://127.0.0.1:$1/metrics" |
		awk '$1 == "hcapp_stage_duration_seconds_count{stage=\"engine\"}" {print $2}'
}
for port in 18081 18082; do
	engines="$(worker_engines $port)"
	if [ -z "$engines" ] || [ "$engines" = 0 ]; then
		echo "worker on :$port executed no item during the cold fleet batches"
		exit 1
	fi
	echo "worker on :$port executed $engines items"
done
"$tmp/hcappsim" -experiment fig4,fig5,energy -dur 1 -workers 1 >"$tmp/solo-a.out"
"$tmp/hcappsim" -experiment fig10 -dur 1 -workers 1 >"$tmp/solo-b.out"
diff -u "$tmp/solo-a.out" "$tmp/fleet-a.out"
diff -u "$tmp/solo-b.out" "$tmp/fleet-b.out"
# A hot repeat is answered by the coordinator's cache alone: workers keep
# no results, so an item that reached one would move its engine count.
engines_before="$(worker_engines 18081) $(worker_engines 18082)"
"$tmp/hcappsim" -experiment fig4,fig5,energy -dur 1 -workers 2 \
	-coordinator http://127.0.0.1:18080 -tenant ci-a >"$tmp/fleet-hot.out"
diff -u "$tmp/solo-a.out" "$tmp/fleet-hot.out"
engines_after="$(worker_engines 18081) $(worker_engines 18082)"
if [ "$engines_before" != "$engines_after" ]; then
	echo "hot repeat reached the workers: engine counts $engines_before -> $engines_after"
	exit 1
fi
echo "hot repeat identical and served by the coordinator cache (worker engine counts $engines_after)"
# The seed sweep sends each seed's suite to the fleet as one batch: its
# output must match the standalone sweep, and the coordinator must have
# executed its items (the cluster item counter grows during the sweep).
cluster_items() {
	curl -fsS http://127.0.0.1:18080/metrics |
		awk '$1 == "hcapp_cluster_items_total" {print $2}'
}
items_before="$(cluster_items)"
"$tmp/hcappsim" -experiment seeds -dur 1 -workers 2 \
	-coordinator http://127.0.0.1:18080 -tenant ci-seeds >"$tmp/fleet-seeds.out"
diff -u "$tmp/seeds-strided.out" "$tmp/fleet-seeds.out"
items_after="$(cluster_items)"
if [ -z "$items_after" ] || ! awk -v a="$items_after" -v b="${items_before:-0}" 'BEGIN {exit !(a > 0 && a > b)}'; then
	echo "seed sweep through the coordinator executed no cluster items ($items_before -> $items_after)"
	exit 1
fi
echo "seed sweep through the fleet identical to standalone ($items_before -> $items_after cluster items)"
# Nothing in this stage probes the coordinator's /readyz, so its count
# stays 0: the clients above sent no readiness probe.
readyz="$(curl -fsS http://127.0.0.1:18080/metrics |
	awk '$1 == "hcapp_http_requests_total{handler=\"readyz\"}" {n = $2} END {print n + 0}')"
if [ "$readyz" != 0 ]; then
	echo "the fleet clients sent $readyz GET /readyz to the coordinator"
	exit 1
fi
echo "no client probed the coordinator's /readyz"
# A fleet reply carries the energy ledger only when the request asks for
# it; the simulated metrics are the same either way.
run_body='{"params":{"seed":42,"target_dur_ns":1000000,"max_dur_factor":3,"fixed_v":0.95},"items":[{"spec":{"combo":"Hi-Hi","scheme":{"Kind":"hcapp","ControlPeriod":1000},"limit":{"Name":"package-pin","Watts":100,"Window":20000}}}]'
lean="$(curl -fsS -X POST http://127.0.0.1:18080/v1/cluster/run -d "$run_body}")"
full="$(curl -fsS -X POST http://127.0.0.1:18080/v1/cluster/run -d "$run_body,\"energy\":true}")"
case "$lean" in *'"energy"'*)
	echo "lean /v1/cluster/run reply carries energy: $lean"
	exit 1
	;;
esac
case "$full" in *'"energy"'*) ;; *)
	echo "/v1/cluster/run reply with energy:true has no energy: $full"
	exit 1
	;;
esac
avg_power() { printf '%s' "$1" | sed -n 's/.*"avg_power":\([^,}]*\).*/\1/p'; }
if [ -z "$(avg_power "$lean")" ] || [ "$(avg_power "$lean")" != "$(avg_power "$full")" ]; then
	echo "lean and energy replies disagree on avg_power: $lean vs $full"
	exit 1
fi
echo "fleet replies carry energy only when asked, with the same avg_power"
kill $coord_pid $w1_pid $w2_pid 2>/dev/null
wait $coord_pid $w1_pid $w2_pid 2>/dev/null || true
trap 'rm -rf "$tmp"' EXIT
echo "fleet output identical to standalone"

# Chaos soak: the same fleet, but every node injects deterministic
# transport faults (latency, drops, truncation, 5xx bursts, partitions,
# restart windows) from a fixed seed. Backoff, circuit breakers,
# hedging, and re-sharding must absorb all of it: the client's output
# still diffs clean against the sequential standalone run, and the
# coordinator's /metrics must show the machinery actually engaged.
echo "== chaos soak (coordinator + 3 workers, seeded faults) =="
"$tmp/hcapp-serve" -role coordinator -addr 127.0.0.1:18090 \
	-chaos-seed 1337 -chaos-profile soak -hedge-after 10ms &
coord_pid=$!
for i in 1 2 3; do
	"$tmp/hcapp-serve" -role worker -addr 127.0.0.1:1809$i \
		-coordinator http://127.0.0.1:18090 -worker-id soak-w$i \
		-chaos-seed 1337 -chaos-profile soak &
	eval "w${i}_pid=\$!"
done
trap 'kill $coord_pid $w1_pid $w2_pid $w3_pid 2>/dev/null; rm -rf "$tmp"' EXIT

"$tmp/hcappsim" -experiment fig4,fig5,fig10,energy -dur 1 -workers 4 \
	-coordinator http://127.0.0.1:18090 -tenant chaos-soak >"$tmp/chaos.out"
diff -u "$tmp/seq.out" "$tmp/chaos.out"
echo "chaos-soaked fleet output identical to standalone"

# The metric checks below rest on a stated load, not on how many
# requests the drivers above happen to send (one per RunSpecs batch):
# 45 one-item requests in turn, each under its own seed so none is a
# cache hit. Dispatch gives each to the least loaded worker, ties by id,
# so one worker keeps receiving them until it reaches a soak 5xx burst
# (the last 4 of every 15 requests it receives), longer than the breaker
# threshold of 3; their slices outlast -hedge-after 10ms. curl retries
# what the coordinator's own injected faults break.
for seed in $(seq 45); do
	body="{\"params\":{\"seed\":$seed,\"target_dur_ns\":1000000,\"max_dur_factor\":3,\"fixed_v\":0.95},\"items\":[{\"spec\":{\"combo\":\"Hi-Hi\",\"scheme\":{\"Kind\":\"hcapp\",\"ControlPeriod\":1000},\"limit\":{\"Name\":\"package-pin\",\"Watts\":100,\"Window\":20000}}}]}"
	curl -fsS --retry 10 --retry-all-errors --retry-delay 0 -o /dev/null \
		-X POST http://127.0.0.1:18090/v1/cluster/run -d "$body" 2>/dev/null || {
		echo "chaos soak: one-item request under seed $seed failed after retries"
		exit 1
	}
done

metrics="$(curl -s http://127.0.0.1:18090/metrics)"
echo "$metrics" | grep -q "^hcapp_chaos_faults_injected_total" || {
	echo "chaos soak: no faults injected — chaos was not actually on"
	exit 1
}
# The robustness machinery must have actually engaged, not just survived:
# the soak profile's 5xx bursts are long enough to trip breakers, and
# -hedge-after 10ms is below ordinary slice latency, so hedges fire.
for want in hcapp_cluster_breaker_trips_total hcapp_cluster_hedged_slices_total; do
	echo "$metrics" | awk -v m="$want" '$1 == m && $2 > 0 {found=1} END {exit !found}' || {
		echo "chaos soak: $want is zero or missing from coordinator /metrics"
		exit 1
	}
done
echo "chaos faults injected, breakers tripped, slices hedged (coordinator /metrics)"

kill $coord_pid $w1_pid $w2_pid $w3_pid 2>/dev/null
wait $coord_pid $w1_pid $w2_pid $w3_pid 2>/dev/null || true
trap 'rm -rf "$tmp"' EXIT

# Trace integrity: a fleet-executed job must assemble one parented span
# tree on the coordinator — worker engine spans shipped back over the
# wire, zero orphans — and the tree's canonical structure must be
# byte-identical across distinct jobs, and between fleet and standalone
# execution. The same job must also finish with the same result,
# sim_time_ns and steps on the coordinator as on the standalone node.
# The standalone node also proves -pprof mounts the profiling endpoints
# and that runtime gauges land in the scrape.
echo "== trace integrity (coordinator + 2 workers vs standalone) =="
"$tmp/hcapp-serve" -role coordinator -addr 127.0.0.1:18100 &
coord_pid=$!
"$tmp/hcapp-serve" -role worker -addr 127.0.0.1:18101 \
	-coordinator http://127.0.0.1:18100 -worker-id trace-w1 &
w1_pid=$!
"$tmp/hcapp-serve" -role worker -addr 127.0.0.1:18102 \
	-coordinator http://127.0.0.1:18100 -worker-id trace-w2 &
w2_pid=$!
"$tmp/hcapp-serve" -addr 127.0.0.1:18103 -pprof &
solo_pid=$!
trap 'kill $coord_pid $w1_pid $w2_pid $solo_pid 2>/dev/null; rm -rf "$tmp"' EXIT

wait_ready() {
	i=0
	while ! curl -fsS "$1/readyz" >/dev/null 2>&1; do
		i=$((i + 1))
		if [ $i -gt 100 ]; then
			echo "trace integrity: $1 never became ready"
			exit 1
		fi
		sleep 0.1
	done
}
wait_ready http://127.0.0.1:18100
wait_ready http://127.0.0.1:18103

# Submits one HCAPP job (combo $2, seed $3) to $1, waits for it to
# finish, and prints its id.
run_job() {
	id="$(curl -fsS -X POST "$1/v1/jobs" \
		-d "{\"combo\":\"$2\",\"scheme\":\"hcapp\",\"dur_ms\":0.5,\"seed\":$3,\"tenant\":\"trace-ci\"}" |
		sed -n 's/.*"id": *"\([0-9a-f]*\)".*/\1/p' | head -n 1)"
	if [ -z "$id" ]; then
		echo "trace integrity: job submission to $1 returned no id" >&2
		exit 1
	fi
	i=0
	while :; do
		state="$(curl -fsS "$1/v1/jobs/$id" | sed -n 's/.*"state": *"\([a-z]*\)".*/\1/p' | head -n 1)"
		[ "$state" = "done" ] && break
		if [ "$state" = "failed" ]; then
			echo "trace integrity: job $id failed" >&2
			exit 1
		fi
		i=$((i + 1))
		if [ $i -gt 300 ]; then
			echo "trace integrity: job $id stuck in state '$state'" >&2
			exit 1
		fi
		sleep 0.1
	done
	echo "$id"
}

# Submits one Mid-Mid job (seed $2) to $1, waits for it, writes its
# sim_time_ns, steps and result object to $3, and prints its span-tree
# structure.
run_traced_job() {
	id="$(run_job "$1" Mid-Mid "$2")"
	curl -fsS "$1/v1/jobs/$id" |
		sed -n -e '/^  "sim_time_ns":/p' -e '/^  "steps":/p' -e '/^  "result": {/,/^  }/p' >"$3"
	curl -fsS "$1/v1/traces?job=$id&view=structure"
}

run_traced_job http://127.0.0.1:18100 101 "$tmp/job-fleet-a.txt" >"$tmp/trace-fleet-a.txt"
run_traced_job http://127.0.0.1:18100 202 "$tmp/job-fleet-b.txt" >"$tmp/trace-fleet-b.txt"
run_traced_job http://127.0.0.1:18103 101 "$tmp/job-solo.txt" >"$tmp/trace-solo.txt"

if [ "$(head -n 1 "$tmp/trace-fleet-a.txt")" != "job" ]; then
	echo "trace integrity: fleet trace does not root at a job span"
	cat "$tmp/trace-fleet-a.txt"
	exit 1
fi
if ! grep -q "engine" "$tmp/trace-fleet-a.txt"; then
	echo "trace integrity: no engine spans shipped back from workers"
	cat "$tmp/trace-fleet-a.txt"
	exit 1
fi
if grep -q "orphan" "$tmp/trace-fleet-a.txt"; then
	echo "trace integrity: orphan spans in the fleet trace"
	cat "$tmp/trace-fleet-a.txt"
	exit 1
fi
diff -u "$tmp/trace-fleet-a.txt" "$tmp/trace-fleet-b.txt"
diff -u "$tmp/trace-fleet-a.txt" "$tmp/trace-solo.txt"
echo "span-tree structure identical across jobs and across fleet/standalone"
if [ "$(grep -c -e '"sim_time_ns"' -e '"steps"' -e '"result"' "$tmp/job-solo.txt")" != 3 ]; then
	echo "trace integrity: standalone job record lacks sim_time_ns, steps or result"
	cat "$tmp/job-solo.txt"
	exit 1
fi
diff -u "$tmp/job-fleet-a.txt" "$tmp/job-solo.txt"
echo "seed-101 Mid-Mid result, sim_time_ns and steps identical on coordinator and standalone"

scrape="$(curl -fsS http://127.0.0.1:18100/metrics)"
for want in hcapp_stage_duration_seconds hcapp_queue_wait_seconds hcapp_go_goroutines; do
	echo "$scrape" | grep -q "^$want" || {
		echo "trace integrity: $want missing from coordinator /metrics"
		exit 1
	}
done
curl -fsS -o /dev/null http://127.0.0.1:18103/debug/pprof/cmdline || {
	echo "trace integrity: -pprof did not mount /debug/pprof"
	exit 1
}
echo "stage and queue-wait histograms scraped, pprof mounted"

kill $coord_pid $w1_pid $w2_pid $solo_pid 2>/dev/null
wait $coord_pid $w1_pid $w2_pid $solo_pid 2>/dev/null || true
trap 'rm -rf "$tmp"' EXIT

# Served-job stride determinism: served jobs stride too (the energy
# ledger and the live-trace observer follow a stride in one bulk call),
# so a standalone hcapp-serve built with the hcapp_fixedstep tag and a
# default one must return the same result and the same live trace page
# for the same job. Mid-Mid never strides under HCAPP (the controller
# re-commands the rail every period); Burst-Burst does, so it rides
# along to keep the diff from being vacuous.
echo "== served-job fixed-step reference diff (tagged vs default hcapp-serve) =="
go build -tags hcapp_fixedstep -o "$tmp/hcapp-serve-fixed" ./cmd/hcapp-serve
"$tmp/hcapp-serve-fixed" -addr 127.0.0.1:18110 &
fixed_pid=$!
"$tmp/hcapp-serve" -addr 127.0.0.1:18111 &
strided_pid=$!
trap 'kill $fixed_pid $strided_pid 2>/dev/null; rm -rf "$tmp"' EXIT
wait_ready http://127.0.0.1:18110
wait_ready http://127.0.0.1:18111

# Prints a finished job's result object and its live trace page, minus
# the per-server random job id.
job_output() {
	id="$(run_job "$1" "$2" "$3")"
	curl -fsS "$1/v1/jobs/$id" | sed -n '/^  "result": {/,/^  }/p'
	curl -fsS "$1/v1/jobs/$id/trace" | sed '/^  "id":/d'
}
for combo in Mid-Mid Burst-Burst; do
	job_output http://127.0.0.1:18110 "$combo" 101 >"$tmp/job-fixed.txt"
	job_output http://127.0.0.1:18111 "$combo" 101 >"$tmp/job-strided.txt"
	if ! grep -q '"result"' "$tmp/job-fixed.txt" || ! grep -q '"power_watts"' "$tmp/job-fixed.txt"; then
		echo "served-job diff: $combo job returned no result or no trace samples"
		cat "$tmp/job-fixed.txt"
		exit 1
	fi
	diff -u "$tmp/job-fixed.txt" "$tmp/job-strided.txt"
done
echo "served job results and traces identical to the fixed-step build"

kill $fixed_pid $strided_pid 2>/dev/null
wait $fixed_pid $strided_pid 2>/dev/null || true
trap 'rm -rf "$tmp"' EXIT

echo "== fuzz (short) =="
go test -run NoSuchTest -fuzz FuzzParseText -fuzztime 5s ./internal/telemetry
go test -run NoSuchTest -fuzz FuzzClusterProtocol -fuzztime 5s ./internal/cluster
# The run-reply codec must decode as json.Unmarshal does and encode as
# json.Marshal does, on any bytes.
go test -run NoSuchTest -fuzz FuzzRunResponseCodec -fuzztime 5s ./internal/cluster
# Trace streams draw from a lazily seeded copy of math/rand's source; it
# must match math/rand draw for draw across seeds, reseeds and wraps.
go test -run NoSuchTest -fuzz FuzzLagSource -fuzztime 5s ./internal/workload
# The power recorder and the figure series reduce online; both must
# match the prefix-sum formulation bit for bit, Record and RecordN mixed.
go test -run NoSuchTest -fuzz FuzzMaxWindowAvg -fuzztime 5s ./internal/trace

# The chiplet's per-voltage table and its units' operating points must
# be exact: fuzzed rails that revisit their voltages, per-unit ratios,
# guardbands, phase lengths, work pools, step lengths and thermal trips,
# with every step and stride held bit for bit to a direct Cursor.Step +
# Freq/Leakage + Dynamic evaluation. The cursor's in-phase step is held
# to Cursor.Step the same way.
echo "== fuzz: per-voltage table and operating points =="
go test -run NoSuchTest -fuzz FuzzPerVoltageTable -fuzztime 10s ./internal/chiplet
go test -run NoSuchTest -fuzz FuzzCursorStep -fuzztime 5s ./internal/workload

echo "ci: all green"
