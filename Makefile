# Tier-1 verification in one command.
.PHONY: all check build test bench bench-e2e bench-e2e-compare \
	bench-e2e-pairs profile \
	trace-smoke cluster-smoke cli-smoke \
	verify-probes-smoke policy-smoke hedge-smoke raft-smoke par-smoke model-smoke kv-smoke lint clean

all: build

build:
	dune build

test:
	dune runtest

# End-to-end smoke test of the observability pipeline: run a traced
# simulation, export Chrome trace-event JSON, and have the binary verify
# both the export's schema and the components-sum-to-sojourn invariant
# (--check exits non-zero on any violation).
trace-smoke:
	dune exec bin/concord_sim.exe -- trace --system concord --workload ycsb-a \
		-n 2000 --rate 150 --last 0 --trace _build/trace-smoke.json --check

# Rack-scale smoke test: three instances behind a Po2c balancer; --check
# verifies the conservation invariants (per-instance completions sum to the
# cluster count, goodput does not exceed offered load) and exits non-zero
# on any violation. Then a two-point load sweep of a two-instance rack runs
# the one load sweep end to end and reports its SLO crossing.
cluster-smoke:
	dune exec bin/concord_sim.exe -- cluster --instances 3 --policy po2c \
		-n 4000 --check
	dune exec bin/concord_sim.exe -- cluster --instances 2 -n 2000 --sweep --points 2

# Bad-input smoke test: every command line below must fail loudly -- exit
# non-zero with a message on stderr that is neither cmdliner's "internal
# error" report nor OCaml's "Fatal error" for an uncaught exception -- and
# write nothing to stdout first: a refusal comes before any header or run.
# The table holds inputs the library rejects after the flags parse (no
# requests, no workers, no group members), inputs it must not accept (a
# zero quantum, an unknown system name, the removed concord-adaptive
# preset, a straggler faster than its peers or infinitely slow, one so
# slow its op costs overflow, a leader kill at a time the clock cannot
# hold, a sweep of no points, a dispersion axis whose mode size or
# short-request probability describes no distribution), the flag values
# refused while the flags parse (a --jobs below 1, a negative --last, an
# empty comma-separated study axis or an empty item in one, a study
# utilization that is not finite and > 0, a negative study RTT, a study
# write ratio outside [0, 1], a group of no members), and the spec
# rejections that already worked (rate, system, workload, a zipf alpha
# that is NaN or 0, an unknown workload option, :zipf= on a workload
# without keys, figure, SLS variant, policy, engine, hedge, arrival, write
# ratio), and the removed --cancel-cost-cycles option of cluster and raft
# (a revocation always costs one requeue op).
CLI_SMOKE_LINES = \
	'run -r 150 -n 0' 'run -r 150 --workers 0' 'sweep -n 0 --points 2' 'trace -n 0' \
	'overheads -n 0' 'sls -r 100 -n 0' 'cluster -n 0' 'raft -n 0' 'raft-study -n 0' \
	'raft-study --nodes 0' \
	'sls -r 100 --quantum 0' 'overheads --systems nosuch' 'cluster --straggler 0:0.5' \
	'sweep --points 0' 'cluster --sweep --points 0' 'raft --sweep --points 0' \
	'run -r nan' 'run -r 150 -s nosuch' 'run -r 150 -s concord-adaptive' 'run -r 150 -w nosuch' \
	'figure nosuch' \
	'run -r 20 -w leveldb:zipf=nan' 'run -r 20 -w leveldb:zipf=0' 'run -r 20 -w leveldb:skew=1' \
	'run -r 150 -w usr:zipf=1' \
	'sls -r 100 --variant bogus' 'run -r 150 --policy bogus' 'cluster --policy bogus' \
	'cluster --engine par:0' 'cluster --hedge bogus' 'cluster --arrival bogus' \
	'raft --write-ratio 2' \
	'cluster --straggler 0:inf' 'cluster --straggler 0:1e18' 'raft --straggler 1:inf' \
	'raft --kill-leader-at nan' 'raft --kill-leader-at inf' 'raft --kill-leader-at 1e30' \
	'frontier --p-short=-0.5' 'frontier --p-short 1.5' 'frontier --p-short=nan' \
	'frontier --short-us=-1' 'frontier --short-us=0' 'frontier --long-us=inf' \
	'frontier --jobs=0' 'hedge-study --jobs=-1' 'cluster --sweep --jobs 0' 'trace --last=-1' \
	'frontier --systems=' 'frontier --policies=' 'frontier --p-short=' 'frontier --util=' \
	'hedge-study --rtts=' 'hedge-study --hedges=' 'hedge-study --policies=' \
	'raft-study --nodes=' 'raft-study --rtts=' 'raft-study --write-ratios=' \
	'overheads --systems=' 'check-model --only=' \
	'frontier --util=-0.5' 'frontier --util=0.5,,0.7' 'hedge-study --util=-0.5' \
	'hedge-study --rtts=-5' 'raft-study --rtts=-5' 'raft-study --write-ratios=-0.5' \
	'raft-study --write-ratios 1.5' \
	'cluster --cancel-cost-cycles 5' 'raft --cancel-cost-cycles 5'
# bench/main.exe must refuse an unknown figure id, a --jobs that is not a
# positive integer and an unknown flag before any table or figure runs;
# --json, --quick and --no-micro, the flags of the retired events/s suite
# and microbenchmarks, are unknown flags now.
BENCH_SMOKE_LINES = \
	'fig99' '--jobs 0 fig2' '--jobs=abc fig2' '--bogus fig2' \
	'--json _build/cli-smoke-core.json' '--quick' '--no-micro'
# Then bench/main.exe table1 must print Table 1 and no figure.
cli-smoke:
	dune build bin/concord_sim.exe bench/main.exe
	@n=0; exe=bin/concord_sim.exe; for a in $(CLI_SMOKE_LINES) -- $(BENCH_SMOKE_LINES); do \
		if [ "$$a" = -- ]; then exe=bench/main.exe; continue; fi; \
		n=$$((n + 1)); \
		if _build/default/$$exe $$a > _build/cli-smoke.out 2> _build/cli-smoke.err; then \
			echo "cli-smoke: $$exe $$a exited 0" >&2; exit 1; fi; \
		if [ ! -s _build/cli-smoke.err ] || grep -q 'internal error\|Fatal error' _build/cli-smoke.err; \
		then echo "cli-smoke: $$exe $$a failed without a clean message:" >&2; \
			cat _build/cli-smoke.err >&2; exit 1; fi; \
		if [ -s _build/cli-smoke.out ]; then \
			echo "cli-smoke: $$exe $$a wrote to stdout before it refused:" >&2; \
			cat _build/cli-smoke.out >&2; exit 1; fi; \
	done; \
	echo "cli-smoke: all $$n bad command lines rejected with a message"
	_build/default/bench/main.exe table1 > _build/cli-smoke-table1.out
	@if grep '^\[fig' _build/cli-smoke-table1.out >&2; then \
		echo "cli-smoke: bench/main.exe table1 ran the figures above" >&2; exit 1; fi; \
	echo "cli-smoke: bench/main.exe table1 ran no figure"

# Static timeliness verifier smoke test: bound the worst-case inter-probe
# gap of every suite kernel (Concord and elided placements), cross-check
# against Monte-Carlo observation, and exit non-zero on any violation.
verify-probes-smoke:
	dune exec bin/concord_sim.exe -- verify-probes --samples 2000 --trials 4 \
		--json _build/verify-probes-smoke.json

# Policy-frontier smoke test: every central-queue policy spec must run a
# short standalone simulation with --check's conservation invariants
# intact (all arrivals completed or censored, non-zero goodput), and
# gittins/srpt-noisy must also survive under the cluster layer.
policy-smoke:
	for p in fcfs srpt srpt-noisy:1.0 srpt-kv gittins locality-fcfs; do \
		dune exec bin/concord_sim.exe -- run --system concord --workload ycsb-a \
			--policy $$p -n 2000 --rate 150 --check || exit 1; \
	done
	dune exec bin/concord_sim.exe -- cluster --instances 3 --policy po2c \
		--policy gittins -n 4000 --check

# Tail-tolerance smoke test: every hedge policy spec (plus cross-server
# stealing) must survive a short straggler-rack run with the cluster
# conservation invariants intact — including the hedge-leg accounting
# (routed legs = arrivals + duplicates, exactly one leg per arrival
# completes or is censored).
hedge-smoke:
	for h in fixed:30000 pct:99 adaptive:0.1; do \
		dune exec bin/concord_sim.exe -- cluster --instances 3 --policy po2c \
			--rtt-cycles 5000 --straggler 0:4 --hedge $$h -n 4000 --check || exit 1; \
	done
	dune exec bin/concord_sim.exe -- cluster --instances 3 --policy random \
		--straggler 0:4 --steal -n 4000 --check

# Replicated-tier smoke test: a 3-node Raft group must keep the protocol
# invariants (commit monotone, one leader per term, no committed-entry
# loss, writes never hedged) through a steady run AND through a leader
# kill + re-election; --check exits non-zero on any violation. The
# 5-node failover with a straggler truncates logs, so it also checks the
# truncation-below-commit and committed-entry-loss invariants on a run
# that truncates. The last two run IPI-signalled (shinjuku) members, and
# a 1 us quantum that preempts the ~1.8 us CPU part of every consensus
# mini-request, whose device wait must start only when that part is done.
raft-smoke:
	dune exec bin/concord_sim.exe -- raft --nodes 3 -n 4000 --check
	dune exec bin/concord_sim.exe -- raft --nodes 3 -n 4000 \
		--kill-leader-at 10000 --check
	dune exec bin/concord_sim.exe -- raft --nodes 3 -n 4000 \
		--hedge fixed:150000 --straggler 1:3 --check
	dune exec bin/concord_sim.exe -- raft --nodes 5 -n 8000 \
		--kill-leader-at 18000 --straggler 2:16 --check
	dune exec bin/concord_sim.exe -- raft --system shinjuku --nodes 3 -n 4000 --check
	dune exec bin/concord_sim.exe -- raft -q 1 --nodes 3 -n 4000 --check

# Parallel-engine smoke test: the rack under the conservative time-window
# engine with 2 domains must keep the same conservation invariants as the
# sequential run (an rtt > 0 gives the model lookahead; rtt 0 would just
# degrade). Three racks: po2c; jbsq:2, where nearly every arrival parks at
# the balancer for a credit; and random routing with stealing off a 4x
# straggler (jbsq:1 could not steal: a victim needs a view of 2 or more).
# A fourth rack draws a LevelDB mix, which the windowed engine keeps on the
# simulating domain (no producer beside the shard domains).
par-smoke:
	dune exec bin/concord_sim.exe -- cluster --instances 3 --policy po2c \
		--rtt-cycles 4000 -n 4000 --engine par:2 --check
	dune exec bin/concord_sim.exe -- cluster --instances 3 --policy jbsq:2 \
		--rtt-cycles 4000 -n 4000 --engine par:2 --check
	dune exec bin/concord_sim.exe -- cluster --instances 3 --policy random --steal \
		--straggler 0:4 --rtt-cycles 4000 -n 4000 --engine par:2 --check
	dune exec bin/concord_sim.exe -- cluster -w leveldb-zippydb -r 1200 -n 20000 \
		--rtt-cycles 4000 --engine par:2 --check

# LevelDB smoke test: the two kvstore-backed mixes, whose generators run
# real store operations, through a standalone run with --check's
# conservation invariants, then ZippyDB through every other host: the SLS
# server, a seq rack and a Raft group (--check where the command has it).
# On a host with a second core the standalone, SLS and rack runs draw their
# arrivals on a producer domain (Prefetch), so this also runs the hand-off
# end to end; the Raft group draws inline.
kv-smoke:
	dune exec bin/concord_sim.exe -- run -w leveldb-zippydb -r 300 -n 20000 --check
	dune exec bin/concord_sim.exe -- run -w leveldb -r 20 -n 4000 --check
	dune exec bin/concord_sim.exe -- sls -w leveldb-zippydb -r 300 -n 20000
	dune exec bin/concord_sim.exe -- cluster -w leveldb-zippydb -r 1200 -n 20000 \
		--rtt-cycles 4000 --check
	dune exec bin/concord_sim.exe -- raft -w leveldb-zippydb -n 4000 --check

# Model-checker smoke test: explore every DPOR-inequivalent interleaving
# of the engine's Atomics protocols (SPSC mailbox, sense-reversing
# barrier, work-sharing pool, prefetch stream) to quiescence, and prove the
# checker still bites by requiring every seeded-bug fixture (MPSC misuse,
# publication reorder, missing sense reversal, SPSC contract, a prefetch
# producer that grows the ring) to be caught. Non-zero
# exit on any violation of a good scenario, any uncaught seeded bug, or
# any exploration that silently hit its schedule cap. Per-scenario caps
# bound the wall time (the whole registry runs in seconds).
model-smoke:
	dune exec bin/concord_sim.exe -- check-model

# Determinism + concurrency lint: the simulation library must not reach
# for ambient nondeterminism (Random, wall clocks, unordered Hashtbl
# iteration, bare Domain/Atomic outside engine/), Par_sim party bodies
# must not touch unmediated shared mutable state (domain-escape pass),
# and every [@lint.deterministic] waiver must still suppress something
# (stale waivers are findings). Prefetch producers count as party bodies
# too. Also proves the lint itself still bites,
# via --expect-fail fixtures.
lint:
	dune exec tools/lint.exe -- lib
	dune exec tools/lint.exe -- --expect-fail tools/fixtures/bad_random.ml
	dune exec tools/lint.exe -- --expect-fail tools/fixtures/bad_domain.ml
	dune exec tools/lint.exe -- --expect-fail tools/fixtures/bad_escape.ml
	dune exec tools/lint.exe -- --expect-fail tools/fixtures/bad_prefetch.ml
	dune exec tools/lint.exe -- --expect-fail tools/fixtures/stale_waiver.ml

# What CI (and every PR) must keep green.
check:
	dune build && dune runtest && $(MAKE) lint && $(MAKE) trace-smoke && $(MAKE) cluster-smoke \
		&& $(MAKE) cli-smoke && $(MAKE) policy-smoke && $(MAKE) hedge-smoke && $(MAKE) raft-smoke \
		&& $(MAKE) par-smoke && $(MAKE) model-smoke && $(MAKE) kv-smoke \
		&& $(MAKE) verify-probes-smoke

bench:
	dune exec bench/main.exe

# End-to-end benchmark (bench/e2e/README.md): host time per simulated
# request, set-up time, peak memory and the per-layer split on all six
# workloads, each in a fresh child process (~2.5 min), written as a suite
# JSON to E2E_JSON. Extra flags go in E2E_ARGS, e.g. E2E_ARGS="--seed 7".
E2E_JSON ?= _build/bench-e2e.json
bench-e2e:
	sh bench/e2e/run.sh $(E2E_ARGS) --json $(E2E_JSON)

# Label each (workload, end-to-end metric) of suite file B against suite
# file A: better, worse, within bound or unresolved; MODEL CHANGED on a
# fingerprint drift. Exits non-zero if any metric is worse.
bench-e2e-compare:
	@if [ -z "$(A)" ] || [ -z "$(B)" ]; then \
		echo "usage: make bench-e2e-compare A=old.json B=new.json" >&2; exit 2; fi
	sh bench/e2e/run.sh --compare $(A) $(B)

# Interleaved before/after of one bench/e2e workload (tools/bench_pairs.sh):
# one untimed warm-up run of each build (--seconds 0; after the host idles,
# a build's first runs with a producer domain are slow), then N pairs of
# the two bench_e2e.exe builds, alternating which runs first, then each
# side's median and quartiles of METRIC and the pairs B won.
N ?= 10
SEED ?= 42
SECS ?= 4
METRIC ?= host_ns_per_req
bench-e2e-pairs:
	@if [ -z "$(A)" ] || [ -z "$(B)" ] || [ -z "$(W)" ]; then \
		echo "usage: make bench-e2e-pairs A=old.exe B=new.exe W=WORKLOAD [N=10] [SEED=42] [SECS=4] [METRIC=host_ns_per_req]" >&2; \
		exit 2; fi
	sh tools/bench_pairs.sh $(A) $(B) $(W) $(N) $(SEED) $(SECS) $(METRIC)

# Flat PC-sampling profile of one bench/e2e workload: tools/sprof.c, preloaded
# into bench_e2e.exe, samples the main thread (the main domain; other
# domains are not sampled) at 10 kHz on the monotonic clock over one
# SECS-second window at SEED, and tools/sprof_report.sh prints the
# per-function and per-module table. The samples stay in
# _build/sprof/WORKLOAD.prof. Not part of `make check`.
profile:
	@if [ -z "$(W)" ]; then \
		echo "usage: make profile W=WORKLOAD [SEED=42] [SECS=4]" >&2; exit 2; fi
	dune build bench/e2e/bench_e2e.exe
	mkdir -p _build/sprof
	cc -O2 -shared -fPIC -o _build/sprof/sprof.so tools/sprof.c
	SPROF_OUT=_build/sprof/$(W).prof LD_PRELOAD=$(CURDIR)/_build/sprof/sprof.so \
		_build/default/bench/e2e/bench_e2e.exe --workload $(W) --seed $(SEED) \
		--seconds $(SECS) --trace 0 > /dev/null
	sh tools/sprof_report.sh _build/sprof/$(W).prof

clean:
	dune clean
