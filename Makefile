.PHONY: all build test check smoke trace-report-smoke soak-smoke runner-smoke audit-smoke baseline-smoke bench bench-perf bench-perf-test pin-baseline diff-baseline clean

all: build

build:
	dune build @all

test:
	dune runtest

check:
	dune build @all && dune runtest

# End-to-end smoke: short run with tracing + metric sampling, then assert
# the trace JSONL parses (check-trace exits non-zero on any bad line) and
# the metrics CSV contains data rows beyond the header. Sink paths are
# per-run: the requested path gains a .seedS suffix (default seed is 1).
smoke: build
	rm -f /tmp/t.seed1.jsonl /tmp/m.seed1.csv
	dune exec bin/lockss_sim.exe -- run --years 0.1 \
	  --trace-out /tmp/t.jsonl --metrics-out /tmp/m.csv --sample-interval 7d
	dune exec bin/lockss_sim.exe -- check-trace /tmp/t.seed1.jsonl
	@test "$$(wc -l < /tmp/m.seed1.csv)" -gt 1 || \
	  { echo "smoke: /tmp/m.seed1.csv has no sample rows" >&2; exit 1; }
	@echo "smoke: OK"

# Offline-analyzer smoke: a short fault-free baseline traced at debug
# level must reconstruct into spans and a ledger with zero anomalies
# (trace-report exits non-zero on any anomaly). The trace is then
# round-tripped through the binary encoding: check-trace, trace-report
# and audit must agree with the JSONL path byte-for-byte and
# exit-code-for-exit-code, the converted binary trace must equal the
# same run written directly as binary, and converting back must
# reproduce the original JSONL exactly.
trace-report-smoke: build
	rm -f /tmp/tr-smoke.seed1.jsonl /tmp/tr-smoke-spans.seed1.jsonl /tmp/tr-smoke-ledger.seed1.json \
	  /tmp/tr-smoke.seed1.ntrace /tmp/tr-smoke-back.seed1.jsonl /tmp/tr-smoke-direct.seed1.ntrace
	dune exec bin/lockss_sim.exe -- run --years 0.2 \
	  --trace-out /tmp/tr-smoke.jsonl --trace-level debug \
	  --spans-out /tmp/tr-smoke-spans.jsonl --ledger-out /tmp/tr-smoke-ledger.json
	dune exec bin/lockss_sim.exe -- trace-report /tmp/tr-smoke.seed1.jsonl
	@grep -q '"ok": *true' /tmp/tr-smoke-ledger.seed1.json || \
	  { echo "trace-report-smoke: ledger did not reconcile with metrics" >&2; exit 1; }
	@test -s /tmp/tr-smoke-spans.seed1.jsonl || \
	  { echo "trace-report-smoke: no spans written" >&2; exit 1; }
	dune exec bin/lockss_sim.exe -- trace-convert /tmp/tr-smoke.seed1.jsonl /tmp/tr-smoke.seed1.ntrace
	dune exec bin/lockss_sim.exe -- run --years 0.2 \
	  --trace-out /tmp/tr-smoke-direct.ntrace --trace-level debug --trace-format binary
	cmp /tmp/tr-smoke-direct.seed1.ntrace /tmp/tr-smoke.seed1.ntrace || \
	  { echo "trace-report-smoke: converted binary trace differs from a directly written one" >&2; exit 1; }
	dune exec bin/lockss_sim.exe -- check-trace /tmp/tr-smoke.seed1.ntrace
	dune exec bin/lockss_sim.exe -- trace-report --json /tmp/tr-smoke.seed1.jsonl > /tmp/tr-smoke-report-jsonl.json
	dune exec bin/lockss_sim.exe -- trace-report --json /tmp/tr-smoke.seed1.ntrace > /tmp/tr-smoke-report-binary.json
	cmp /tmp/tr-smoke-report-jsonl.json /tmp/tr-smoke-report-binary.json || \
	  { echo "trace-report-smoke: binary trace analyzed differently from JSONL" >&2; exit 1; }
	dune exec bin/lockss_sim.exe -- audit /tmp/tr-smoke.seed1.ntrace
	dune exec bin/lockss_sim.exe -- trace-convert /tmp/tr-smoke.seed1.ntrace /tmp/tr-smoke-back.seed1.jsonl
	cmp /tmp/tr-smoke.seed1.jsonl /tmp/tr-smoke-back.seed1.jsonl || \
	  { echo "trace-report-smoke: jsonl -> binary -> jsonl is not the identity" >&2; exit 1; }
	@echo "trace-report-smoke: OK"

# Fault-injection smoke: a small multi-seed sweep under the acceptance
# fault mix (loss, jitter, duplication, churn, corruption, replay, stale
# delivery, stray injection). Fails if any seed sees a handler
# exception, zero progress, or any violation: an auditor invariant, a
# leaked timer/session, a stuck poll, pending-event growth, a message
# or churn accounting mismatch, or degradation past ten times its
# fault-free pair; the JSON report records the per-seed verdicts
# either way.
soak-smoke: build
	dune exec bin/lockss_sim.exe -- soak --peers 15 --aus 2 --quorum 4 \
	  --years 1 --seed 1 --seeds 8 --fault-seed 7 --json soak-report.json
	@echo "soak-smoke: OK"

# Parallel-runner smoke: the same sweep with 1 and 2 worker domains must
# render byte-identical tables (the Runner determinism contract).
runner-smoke: build
	dune exec bin/lockss_sim.exe -- reproduce fig3 --peers 12 --aus 1 \
	  --quorum 3 --years 0.5 --runs 2 --seed 3 --jobs 1 > /tmp/runner-serial.txt
	dune exec bin/lockss_sim.exe -- reproduce fig3 --peers 12 --aus 1 \
	  --quorum 3 --years 0.5 --runs 2 --seed 3 --jobs 2 > /tmp/runner-parallel.txt
	cmp /tmp/runner-serial.txt /tmp/runner-parallel.txt || \
	  { echo "runner-smoke: parallel output differs from serial" >&2; exit 1; }
	@echo "runner-smoke: OK"

# Invariant-audit smoke: a fault-free run with the online auditor
# attached must report zero violations (in-sim and on offline replay of
# its trace), and a seeded mutation of the same trace must make exactly
# its target invariant fire (audit exits non-zero on any violation).
audit-smoke: build
	rm -f /tmp/audit-smoke.seed1.jsonl
	dune exec bin/lockss_sim.exe -- run --years 0.3 --check \
	  --trace-out /tmp/audit-smoke.jsonl --trace-level debug \
	  | grep -q '^violations: 0$$' || \
	  { echo "audit-smoke: live auditor reported violations" >&2; exit 1; }
	dune exec bin/lockss_sim.exe -- audit /tmp/audit-smoke.seed1.jsonl
	! dune exec bin/lockss_sim.exe -- audit /tmp/audit-smoke.seed1.jsonl \
	  --mutate refractory-bypass > /tmp/audit-smoke-mutated.txt 2>&1
	grep -q '^violations: 1$$' /tmp/audit-smoke-mutated.txt || \
	  { echo "audit-smoke: mutated trace did not raise exactly one violation" >&2; exit 1; }
	@echo "audit-smoke: OK"

# Every paper experiment at the bench scale, with the paper's reference
# values and each section's wall time (the numbers in EXPERIMENTS.md).
bench:
	dune exec bench/main.exe

# The repository benchmark declared in BENCHMARK.json: every workload at
# seed 1 for the declared 30-second run length. Each run prints its
# metrics by name and ends with one JSON verdict line; a failed oracle
# stops the loop.
PERF_WORKLOADS = steady-1k hostile-audited bootstrap-5k sweep-pool
bench-perf:
	for w in $(PERF_WORKLOADS); do \
	  python3 perfbench/run.py --workload $$w --seed 1 --seconds 30 || exit 1; \
	done

# The benchmark's own test: every workload at toy size against its
# oracle, metric names and units checked against BENCHMARK.json.
bench-perf-test:
	python3 perfbench/test_bench.py

# -- Paper-figure result baselines --------------------------------------

# Pin the paper-figure golden baselines (baselines/*.baseline.json) at
# the CLI's default scale, then verify the pins round-trip clean.
pin-baseline: build
	dune exec bin/lockss_sim.exe -- pin-baseline
	dune exec bin/lockss_sim.exe -- diff-baseline

# Diff current figure results against the pinned golden baselines;
# exits non-zero on any drift past tolerance.
diff-baseline: build
	dune exec bin/lockss_sim.exe -- diff-baseline

# Result-regression smoke: pin a micro-scale baseline into a scratch
# dir, check the clean diff passes, then perturb one pinned value and
# check the diff fails with a drift verdict.
baseline-smoke: build
	rm -rf /tmp/baseline-smoke && mkdir -p /tmp/baseline-smoke
	dune exec bin/lockss_sim.exe -- pin-baseline fig3 \
	  --peers 15 --aus 2 --quorum 4 --years 1 --baseline-dir /tmp/baseline-smoke
	dune exec bin/lockss_sim.exe -- diff-baseline fig3 \
	  --peers 15 --aus 2 --quorum 4 --years 1 --baseline-dir /tmp/baseline-smoke
	awk 'f==0 && /"value":/ { sub(/"value":[-0-9.eE+]+/, "\"value\":99.5"); f=1 } { print }' \
	  /tmp/baseline-smoke/fig3.baseline.json > /tmp/baseline-smoke/fig3.perturbed.json
	mv /tmp/baseline-smoke/fig3.perturbed.json /tmp/baseline-smoke/fig3.baseline.json
	! dune exec bin/lockss_sim.exe -- diff-baseline fig3 \
	  --peers 15 --aus 2 --quorum 4 --years 1 --baseline-dir /tmp/baseline-smoke \
	  > /tmp/baseline-smoke/drift.txt 2>&1
	grep -q 'DRIFT' /tmp/baseline-smoke/drift.txt || \
	  { echo "baseline-smoke: perturbed pin did not report drift" >&2; exit 1; }
	@echo "baseline-smoke: OK"

clean:
	dune clean
