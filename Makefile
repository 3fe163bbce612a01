# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench benchmark bench-alloc bench-flows bench-burst bench-pdes bench-hybrid figures fast check check-flags clean

all: build

build:
	dune build @all

test:
	dune runtest

# Full paper-scale regeneration of every table, figure, ablation and
# extension (~3 minutes), captured to bench_output.txt.
bench:
	dune exec bench/main.exe 2>&1 | tee bench_output.txt

# The repository benchmark (BENCHMARK.json): every workload in its own
# process, untraced then traced, results under benchmark/out/. Compare
# two sets with `bash benchmark/run.sh compare A.json B.json`.
benchmark:
	bash benchmark/run.sh run --seed 1

# Each gated bench section writes one BENCH_*.json file: a "gates" list
# of {name, measured, op, bound, spread?, skip?} plus the section's
# measurements and a machine descriptor. The section prints one verdict
# line per gate and exits non-zero when any gate fails;
# `report-check FILE` re-reads the file and reaches the same verdict.

# Allocation budget: per-scenario minor words/event (Reno 5.1,
# Reno/RED 6.4, Vegas 5.5) and, in full mode, the Reno events/sec floor.
bench-alloc:
	dune exec bench/main.exe -- --only alloc --fast

# Flow scaling: one Reno/RED run each at N = 10^3, 10^4 and 10^5 greedy
# flows in a mean-field regime (capacity, buffer and RED thresholds
# scale with N). Gates bytes/flow, slab growth, leaks, words/event, the
# fluid-model ratio bands on the converged N <= 10^4 rows and, in full
# mode, the N = 10^5 events/sec floor.
bench-flows:
	dune exec bench/main.exe -- --only flows --fast

# Burstiness observability: the burst aggregator's words/event delta,
# streaming-vs-offline c.o.v. equivalence at the RTT timescale, and a
# RED w_q sweep bracketing the Reynier/Hollot critical gain whose
# oscillation-detector verdicts must match the predicted side.
bench-burst:
	dune exec bench/main.exe -- --only burst --fast

# Parallelism: sequential-vs-parallel sweep determinism, 1-shard vs
# 4-shard sharded-PDES bit-identity, and 1/2/4 shard wall-clock rows at
# N = 10^4 Reno/RED. The >= 3x single-run speedup gate is skipped on
# machines with fewer than 4 domains.
bench-pdes:
	dune exec bench/main.exe -- --only pdes --fast
	dune exec bin/main.exe -- report-check BENCH_parallel.json

# Hybrid fluid/packet engine: hybrid-vs-packet validation bands at
# N = 10^3 and 10^4, the converged N = 10^6 row (K = 100 packet
# foreground + 999,900 fluid background; leak-free, zero slab growth,
# and in full mode the >= 10x work-per-simulated-second floor), and the
# RED w_q stability sweep at mean-field scale.
bench-hybrid:
	dune exec bench/main.exe -- --only hybrid --fast
	dune exec bin/main.exe -- report-check BENCH_hybrid.json

# Just the paper's figures, at paper scale.
figures:
	dune exec bin/main.exe -- all

# Smoke-test everything at reduced scale.
fast:
	dune exec bench/main.exe -- --fast

# The default build (dune-workspace: release) must compile library
# modules without -opaque, so calls across modules are direct and can be
# inlined, and with the dev profile's lint (the root dune file): one
# module's compile rule is checked.
check-flags:
	dune rules _build/default/lib/net/.netsim.objs/native/netsim__Link.cmx > _build/link-rule.txt
	! grep -q -- '-opaque' _build/link-rule.txt
	grep -q -- '-strict-sequence' _build/link-rule.txt
	grep -qF -- '@1..3@5..28@30..39@43@46..47@49..57@61..62-40' _build/link-rule.txt

# CI gate: build flags, unit + cram tests (including the parallel determinism
# suite, re-run explicitly so a filtered runtest cannot skip it), a
# telemetry smoke run (sharded UDP) whose trace must be non-empty and
# whose report must validate, one full-horizon rep of each BENCHMARK.json
# workload (exit 1 on a raised run, a failed output check, a leak or
# reps whose digests differ; each prints its digest), then every gated
# bench section, each re-validated from the BENCH_*.json it wrote.
check: check-flags
	dune build @all
	dune runtest
	dune exec test/test_main.exe -- test parallel
	dune exec bin/main.exe -- run --scenario udp --shards 2 -n 5 --duration 10 \
	  --telemetry=_build/smoke-report.json \
	  --trace-out=_build/smoke-trace.ndjson
	test -s _build/smoke-trace.ndjson
	dune exec bin/main.exe -- report-check _build/smoke-report.json
	for w in paper-sweep paper-observed; do \
	  bash benchmark/run.sh --workload $$w --seed 1 --seconds 1 --trace 0 \
	    --out-dir _build/benchmark-check || exit 1; \
	done
	dune exec bench/main.exe -- --fast --only telemetry
	dune exec bin/main.exe -- report-check BENCH_telemetry.json
	dune exec bench/main.exe -- --fast --only pdes
	dune exec bin/main.exe -- report-check BENCH_parallel.json
	dune exec bench/main.exe -- --fast --only alloc
	dune exec bin/main.exe -- report-check BENCH_alloc.json
	dune exec bench/main.exe -- --fast --only flows
	dune exec bin/main.exe -- report-check BENCH_flows.json
	dune exec bench/main.exe -- --fast --only burst
	dune exec bin/main.exe -- report-check BENCH_burst.json
	dune exec bench/main.exe -- --fast --only hybrid
	dune exec bin/main.exe -- report-check BENCH_hybrid.json

clean:
	dune clean
