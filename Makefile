.PHONY: all build test lint certify-smoke farm-smoke chaos-smoke control-smoke trace-smoke fig6-check perf-compare check clean

all: build

build:
	dune build @all

test:
	dune runtest

# Static-analysis self-check: run the dataflow analyzer over every
# bundled workload class. Fails on solver non-convergence or a CFG
# that changes across an encode/decode round trip.
lint:
	dune exec bin/dvmctl.exe -- lint
	dune exec bin/dvmctl.exe -- certify --small

# Certified-rewriting smoke: rewrite the full bundled workloads with
# certificate emission on and translation-validate every class from its
# wire image (must be 0 failures), then run the seeded mutation harness
# over the small builds — corrupted rewriter output / tampered
# certificates must be killed by the verifier or the certifier at a
# kill rate of at least 0.9. dvmctl exits nonzero on either front.
certify-smoke:
	dune exec bin/dvmctl.exe -- certify --mutate --seed 20260808 --count 3 --min-kill 0.9

# Smoke-scale run of the proxy-farm experiment: a quick shard sweep
# with caching off (the scaling curve) and one cached run exercising
# single-flight coalescing and the shared L2.
farm-smoke:
	dune exec bin/dvmctl.exe -- farm --clients 24 --shards 1,2 --duration 5 --applets 8
	dune exec bin/dvmctl.exe -- farm --clients 24 --shards 2 --duration 5 --applets 4 --cache 16 --l2 32

# Smoke-scale chaos run: a short seeded schedule (one crash window,
# LAN loss, a flash-crowd spike) against the overload controls.
# dvmctl exits nonzero if any of the three invariants — digest
# integrity, zero late serves, post-fault recovery — fails.
chaos-smoke:
	dune exec bin/dvmctl.exe -- chaos --clients 12 --duration 12 \
	  --spike-start 3 --spike-len 5 --crashes 1 --loss 1.0 --trace

# Control-plane smoke: a short seeded run replicating a policy bump
# across the farm while control links partition (split brain), one
# shard crash/restarts, the leased leader is killed mid-commit (the
# new leader must re-drive the uncommitted suffix) and later wakes
# with a stale term. dvmctl exits nonzero if any control-plane
# invariant fails: a client served under the revoked policy version,
# two valid leadership leases at one sampled instant (or a term
# regression), snapshot catch-up state that differs from a full-log
# replay, a shard that never converges, or digest drift on applets
# the bump does not touch. The second line is the election smoke:
# leader crash + leader partition forced on, checked via --json.
control-smoke:
	dune exec bin/dvmctl.exe -- control --clients 12 --duration 18 \
	  --applets 6 --bump-at 7 --partitions 1 --partition-len 2 --trace
	dune exec bin/dvmctl.exe -- control --clients 12 --duration 18 \
	  --applets 6 --bump-at 7 --partitions 1 --partition-len 2 --json

# Trace smoke: a seeded chaos run must yield, for at least one shed and
# one serve-stale brownout request, a single cross-node trace with the
# client span, the edge routing span and the explaining reason event.
# dvmctl exits nonzero if either trace is missing; the exports (Chrome
# trace + JSON + flight-recorder dump) land under _build/trace-smoke/.
# The last line traces one app run end to end (proxy warm-up on the
# simulated clock, client run on the host clock) into one Chrome file;
# dvmctl exits nonzero if no span reached the trace.
trace-smoke:
	mkdir -p _build/trace-smoke
	dune exec bin/dvmctl.exe -- flight --out _build/trace-smoke/flight
	dune exec bin/dvmctl.exe -- slo --json
	dune exec bin/dvmctl.exe -- trace --out _build/trace-smoke/jlex.trace.json jlex

# Fig 6 cross-architecture check: every app must print identical
# output as Monolithic, DVM and cached DVM. The bench exits nonzero on
# any divergence; this is the property an interpreter change risks.
fig6-check:
	dune exec bench/main.exe -- fig6

# Perf compare, the BENCH pin: the bench perf phase re-runs the six
# seeded phases that write BENCH_<phase>.json three times each, exits
# non-zero if any served byte, digest or metric drifts from the
# committed baselines or between the runs, and prints baseline-vs-now
# wall-clock per phase (the median run, which the wall_ms field
# records). Every number in those files
# except wall_ms is a function of the virtual clock and the pinned
# seeds, so a diff is either a real behaviour change (recommit the
# baseline, explain it in the PR) or nondeterminism leaking in (a
# bug). The trailing git diff is a second, independent net over the
# same files.
perf-compare:
	dune exec bench/main.exe -- perf
	git diff -I '"wall_ms"' --exit-code BENCH_faults.json BENCH_farm.json BENCH_chaos.json BENCH_control.json BENCH_elide.json BENCH_certify.json
	git checkout -- BENCH_faults.json BENCH_farm.json BENCH_chaos.json BENCH_control.json BENCH_elide.json BENCH_certify.json

# The gate a PR must pass: everything builds, every test is green,
# every smoke and the BENCH pin hold, and no build artifacts are
# tracked or dirtying the tree. Each check runs exactly once, here.
check:
	dune build @all
	dune runtest
	$(MAKE) lint
	$(MAKE) certify-smoke
	$(MAKE) farm-smoke
	$(MAKE) chaos-smoke
	$(MAKE) control-smoke
	$(MAKE) trace-smoke
	$(MAKE) fig6-check
	$(MAKE) perf-compare
	@if git ls-files | grep -q '^_build/'; then \
	  echo "check: _build/ files are tracked in git" >&2; exit 1; fi
	@if git status --porcelain | grep -q '_build'; then \
	  echo "check: _build/ appears in git status (gitignore broken?)" >&2; exit 1; fi
	@echo "check: OK"

clean:
	dune clean
