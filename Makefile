# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet fmt-check lint lint-report test test-short workload-test workload-ab dropped-tests same-output race bench bench-smoke bench-report trace-smoke resume-smoke fuzz fuzz-smoke experiments check resilience examples clean

all: build vet fmt-check lint test

build:
	$(GO) build ./...

# The workload benchmark (cmd/dtnworkload) is its own module, which
# `go vet ./...` at the root skips, so it is vetted on its own.
vet:
	$(GO) vet ./...
	cd cmd/dtnworkload && GOWORK=off $(GO) vet .

# Formatting gate: fails, listing the files, when any Go file in the tree
# (the workload benchmark module included) is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Determinism + hot-path + shard-safety static analysis (DESIGN.md §11),
# eleven checks: no wall-clock in simulation logic, no global math/rand, no
# library panics, no map-order emission, no bare float equality in score
# math, no scalar distance math (sqrt/Hypot) in scan-path packages, no
# package-level mutable state in engine packages, no concurrency primitives
# in the sim path, no RNG substreams escaping their owning subsystem, no
# map-iteration order flowing into engine state, and no allocation inside
# Performance-contract hot functions. `-summary` prints the per-package
# shard-safety certification table; `-json` emits the machine report.
lint:
	$(GO) run ./cmd/dtnlint ./...

lint-report:
	$(GO) run ./cmd/dtnlint -summary ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The workload benchmark (cmd/dtnworkload) is its own module, so `go test
# ./...` at the root skips it. Its tests (~8 s) check BENCHMARK.json's
# names and units, that replayed drop-list gossip equals every node's live
# table, and the pinned seed-1 fingerprints.
workload-test:
	cd cmd/dtnworkload && GOWORK=off $(GO) test .

# Alternating end-to-end pairs of the workload benchmark against a base
# revision, PERFORMANCE §11's method: `make workload-ab BASE=<rev>`. BASE is
# checked out into a temporary git worktree under $TMPDIR, and its benchmark
# binary is built and run through BASE's own cmd/dtnworkload/run.sh (the
# first build fills that checkout's empty build cache); the working tree's
# runs through the tree's run.sh. Each workload in WORKLOADS (default: all
# four) runs PAIRS alternating pairs (default 10) with --seed 1 --seconds
# SECONDS (default 25), odd pairs BASE first, all of one workload's pairs
# before the next workload's. Then, for each workload and metric, it prints
# both sides' medians and quartiles (linear interpolation between the
# sorted runs) and the pairs in which the tree read lower. It fails as soon
# as a run fails, prints correct:false or reports a non-zero fail_ratio.
# Ten pairs of all four workloads take ~45 min. The worktree and the runs'
# output are removed on every exit, interrupts included.
PAIRS ?= 10
WORKLOADS ?= rwp-long taxi fleet-10k fig8-buffer
SECONDS ?= 25
workload-ab:
	@[ -n "$(BASE)" ] || { echo "usage: make workload-ab BASE=<rev> [PAIRS=10] [WORKLOADS='rwp-long ...'] [SECONDS=25]" >&2; exit 2; }; \
	tmp=$$(mktemp -d) || exit 1; \
	trap 'git worktree remove --force "$$tmp/src" 2>/dev/null; git worktree prune; rm -rf "$$tmp"' EXIT; \
	trap 'exit 130' HUP INT TERM; \
	run() { \
		if [ "$$1" = base ]; then dir="$$tmp/src"; else dir="$(CURDIR)"; fi; \
		out="$$tmp/$$1-$$2-$$3"; \
		if ! (cd "$$dir" && bash cmd/dtnworkload/run.sh --workload "$$2" --seed 1 --seconds "$(SECONDS)") \
				> "$$out.txt" 2> "$$out.err" || \
			! grep -q '^fail_ratio 0 ratio$$' "$$out.txt" || ! grep -q '"correct":true' "$$out.txt"; then \
			echo "workload-ab: $$1 run of $$2, pair $$3, failed:"; tail -n 5 "$$out.err" "$$out.txt"; return 1; fi; \
		awk -v s="$$1" -v w="$$2" -v p="$$3" 'NF == 3 && $$1 != "fail_ratio" { print w, $$1, s, p, $$2, $$3 }' \
			"$$out.txt" >> "$$tmp/runs.txt"; \
	}; \
	git worktree add --quiet --detach "$$tmp/src" "$(BASE)" || exit 1; \
	for w in $(WORKLOADS); do \
		p=1; while [ $$p -le $(PAIRS) ]; do \
			if [ $$((p % 2)) -eq 1 ]; then run base $$w $$p && run tree $$w $$p || exit 1; \
			else run tree $$w $$p && run base $$w $$p || exit 1; fi; \
			echo "workload-ab: $$w pair $$p of $(PAIRS) done" >&2; p=$$((p + 1)); \
		done; \
	done; \
	awk 'function q(k, s, f,   a, m, i, j, t, h) { \
			m = n[k, s]; for (i = 1; i <= m; i++) a[i] = v[k, s, i]; \
			for (i = 2; i <= m; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t; } \
			h = 1 + f * (m - 1); i = int(h); return i >= m ? a[m] : a[i] + (h - i) * (a[i + 1] - a[i]); } \
		function side(k, s) { return sprintf("%#.4g [%#.4g, %#.4g]", q(k, s, 0.5), q(k, s, 0.25), q(k, s, 0.75)); } \
		{ k = $$1 SUBSEP $$2; if (!(k in unit)) { keys[++nk] = k; unit[k] = $$6; } \
			v[k, $$3, ++n[k, $$3]] = $$5; at[k, $$3, $$4] = $$5; } \
		END { printf "%-12s %-8s %-5s %-34s %-34s %s\n", "workload", "metric", "unit", "base median [q1, q3]", "tree median [q1, q3]", "tree lower"; \
			for (o = 1; o <= nk; o++) { k = keys[o]; split(k, name, SUBSEP); lower = 0; \
				for (p = 1; p <= n[k, "base"]; p++) if (at[k, "tree", p] < at[k, "base", p]) lower++; \
				printf "%-12s %-8s %-5s %-34s %-34s %d/%d\n", name[1], name[2], unit[k], side(k, "base"), side(k, "tree"), lower, n[k, "base"]; } }' \
		"$$tmp/runs.txt"

# Test names, subtests included, that ran at BASE and no longer run in the
# working tree, one package:name a line, then their count:
# `make dropped-tests BASE=<rev>`. Both suites run whole (~20 s each, less
# from the test cache), the root module's and the workload module's; a
# test that now skips counts as dropped. BASE is checked out into a
# temporary git worktree under $TMPDIR (never .bench_build/, which
# cmd/dtnworkload/run.sh owns), removed on every exit, interrupts included.
dropped-tests:
	@[ -n "$(BASE)" ] || { echo "usage: make dropped-tests BASE=<rev>" >&2; exit 2; }; \
	export LC_ALL=C; tmp=$$(mktemp -d) || exit 1; \
	trap 'git worktree remove --force "$$tmp/base" 2>/dev/null; git worktree prune; rm -rf "$$tmp"' EXIT; \
	trap 'exit 130' HUP INT TERM; \
	names() { \
		{ (cd "$$1" && $(GO) test -json ./...); \
		  (cd "$$1/cmd/dtnworkload" && GOWORK=off $(GO) test -json .); } | \
		sed -nE 's/.*"Action":"(pass|fail)","Package":"([^"]*)","Test":"([^"]*)".*/\2:\3/p' | sort -u; \
	}; \
	git worktree add --quiet --detach "$$tmp/base" "$(BASE)" && \
	names "$$tmp/base" > "$$tmp/base.txt" && names "$(CURDIR)" > "$$tmp/tree.txt" && \
	comm -23 "$$tmp/base.txt" "$$tmp/tree.txt" > "$$tmp/dropped.txt" && \
	cat "$$tmp/dropped.txt" && \
	echo "$$(wc -l < "$$tmp/dropped.txt" | tr -d ' ') test names dropped since $(BASE)"

# Byte-identity gate for changes that must not move any output:
# `make same-output BASE=<rev>` builds dtnsim and experiments at BASE,
# checked out in a temporary git worktree under $TMPDIR, and in the working
# tree. In one directory per side it runs a Table II run (seed 1) and a
# 6 000 s Table III run (seed 2), each writing its event log, and every
# experiment at seed 1 and a tenth of its scale, writing its TSVs. It then
# diffs the two directories: event logs, stdout (less the perf line, whose
# wall-clock readings vary) and TSVs. On any difference it lists the files
# that differ and the diff's first lines, and fails. It takes ~5 s with
# both builds cached. The worktree and both directories are removed on
# every exit, interrupts included.
same-output:
	@[ -n "$(BASE)" ] || { echo "usage: make same-output BASE=<rev>" >&2; exit 2; }; \
	tmp=$$(mktemp -d) || exit 1; \
	trap 'git worktree remove --force "$$tmp/src" 2>/dev/null; git worktree prune; rm -rf "$$tmp"' EXIT; \
	trap 'exit 130' HUP INT TERM; \
	outputs() { \
		bin="$$tmp/bin-$$1"; \
		(cd "$$2" && $(GO) build -o "$$bin/" ./cmd/dtnsim ./cmd/experiments) && \
		mkdir "$$tmp/$$1" && (cd "$$tmp/$$1" && \
		"$$bin/dtnsim" -seed 1 -events rwp.jsonl > rwp.txt && \
		"$$bin/dtnsim" -scenario epfl -seed 2 -duration 6000 -events epfl.jsonl > epfl.txt && \
		"$$bin/experiments" -run all -seeds 1 -scale 0.1 -out tsv -no-chart -quiet > experiments.txt); \
	}; \
	git worktree add --quiet --detach "$$tmp/src" "$(BASE)" && \
	outputs base "$$tmp/src" && outputs tree "$(CURDIR)" && \
	if ! diff -r -I '^perf ' "$$tmp/base" "$$tmp/tree" > "$$tmp/diff.txt"; then \
		grep -E '^(diff|Only in) ' "$$tmp/diff.txt"; head -20 "$$tmp/diff.txt"; \
		echo "same-output: the outputs above differ from $(BASE)"; exit 1; fi && \
	echo "same-output: event logs, stdout and $$(ls "$$tmp/tree/tsv" | wc -l | tr -d ' ') TSVs match $(BASE)"

# Race-detector pass; exercises the concurrent experiment runner.
race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# CI-sized perf sanity pass (~1 min, see PERFORMANCE.md): runs the suite's
# smoke case, asserts the report round-trips through the schema, that two
# separate processes simulate byte-identically (second invocation gating on
# the first's sim digest), and that the digests of smoke and of the four
# scan cases (scan100k's 100 000 and densescan's 400 walkers, table2's 100
# walkers and table3's 200 taxis, all on the naive scan's neighbour list)
# still match the newest committed BENCH_<n>.json — any scanner or
# engine change that perturbs the event stream fails here before the full
# bench-report would catch it. The huge
# -max-regress disarms the timing gate (CI machines are noisy); only
# determinism failures can trip it. The temporary directory is removed on
# every exit, failures and interrupts included.
bench-smoke:
	@tmp=$$(mktemp -d) || exit 1; trap 'rm -rf "$$tmp"' EXIT; trap 'exit 130' HUP INT TERM; \
	$(GO) run ./cmd/dtnbench -smoke -iters 3 -out $$tmp/smoke.json -quiet && \
	$(GO) run ./cmd/dtnbench -smoke -iters 2 -baseline $$tmp/smoke.json -max-regress 100000 -quiet && \
	$(GO) run ./cmd/dtnbench -smoke -iters 2 -max-regress 100000 -quiet \
		-baseline $$(ls BENCH_*.json | grep -v candidate | sort -t_ -k2 -n | tail -1) && \
	$(GO) run ./cmd/dtnbench -cases scan100k,densescan,table2,table3 -iters 2 -max-regress 100000 -quiet \
		-baseline $$(ls BENCH_*.json | grep -v candidate | sort -t_ -k2 -n | tail -1) && \
	$(GO) test -short -run 'TestGoldenTraceByteIdentical|TestReportByteStable|TestSmokeCaseMatchesGoldenCounters' ./internal/bench/ && \
	$(GO) test -run 'TestScan100kScalesWithinBudget|TestCommittedScan100kPeakHeapWithinBudget' ./internal/bench/

# Full regression suite (~15 s at -iters 3 on a 2-vCPU host): write a
# candidate report and gate it against the newest committed BENCH_<n>.json.
# See PERFORMANCE.md for how to read the delta table and when to commit the
# candidate as the next baseline.
bench-report:
	$(GO) run ./cmd/dtnbench -iters 3 -out BENCH_candidate.json \
		-baseline $$(ls BENCH_*.json | grep -v candidate | sort -t_ -k2 -n | tail -1)

# Observability round-trip gate (~20 s): run dtnsim with the event log (gzip)
# and snapshot sampler, then require (a) dtntrace stats to reproduce the
# printed summary bit-for-bit from the trace alone, (b) a same-seed rerun
# in a second process to be byte-identical under dtntrace diff, (c) a
# different-seed run to be flagged divergent, (d) a same-seed -acks run on
# the full 100-node preset (dense enough to purge copies) to reproduce the
# drops line exactly, acked=N included, and the same at a 600 s TTL, which
# expires messages over six TTLs so the ACK tables forget them while they
# gossip, (e) a traffic-free -intermeeting run to print a non-empty
# intermeeting line and pass the same check (the only check that the flag
# still attaches the stats.Intermeeting sink: cmd/dtnsim has no Go test),
# (f) an OracleUtility run, whose world alone
# attaches the ground-truth ledger its hosts score with, to pass the same
# check, (g) the series header to end in the counter and fill columns
# and every paths -jsonl record to carry seen, and (h) a contact trace
# with a NaN time to be refused with exit 1 and the parse error, not a
# panic in the event queue.
# The printed summary is the live stats.Collector, itself a fold of the
# event vocabulary; stats -check compares it with dtntrace's independent
# fold of the log, so any drift between the two and any nondeterminism in
# the emit path fails here. The comparison of the naive scan against the
# reference scan belongs to the Go differential families
# (TestNaiveScanMatchesReference) that CI's scan-diff race step runs. The
# temporary directory, binaries and event logs included, is removed on
# every exit, failures and interrupts included.
trace-smoke:
	@tmp=$$(mktemp -d) || exit 1; trap 'rm -rf "$$tmp"' EXIT; trap 'exit 130' HUP INT TERM; \
	$(GO) build -o $$tmp/dtnsim ./cmd/dtnsim && \
	$(GO) build -o $$tmp/dtntrace ./cmd/dtntrace && \
	$$tmp/dtnsim -nodes 24 -duration 3600 -seed 3 \
		-events $$tmp/a.jsonl.gz -snapshot-interval 300 > $$tmp/sim.txt && \
	$$tmp/dtnsim -nodes 24 -duration 3600 -seed 3 \
		-events $$tmp/b.jsonl -snapshot-interval 300 > /dev/null && \
	$$tmp/dtnsim -nodes 24 -duration 3600 -seed 4 \
		-events $$tmp/c.jsonl > /dev/null && \
	$$tmp/dtnsim -duration 3600 -seed 3 -acks \
		-events $$tmp/d.jsonl > $$tmp/acks.txt && \
	$$tmp/dtntrace stats -check $$tmp/sim.txt $$tmp/a.jsonl.gz && \
	grep -q 'acked=[1-9]' $$tmp/acks.txt && \
	$$tmp/dtntrace stats -check $$tmp/acks.txt $$tmp/d.jsonl > /dev/null && \
	echo "ACK purges agree: $$(grep '^drops' $$tmp/acks.txt)" && \
	$$tmp/dtnsim -duration 3600 -seed 3 -acks -ttl 600 \
		-events $$tmp/g.jsonl > $$tmp/acks-ttl.txt && \
	grep -q 'expired=[1-9]' $$tmp/acks-ttl.txt && \
	$$tmp/dtntrace stats -check $$tmp/acks-ttl.txt $$tmp/g.jsonl > /dev/null && \
	echo "ACK purges agree past six TTLs: $$(grep '^drops' $$tmp/acks-ttl.txt)" && \
	$$tmp/dtnsim -duration 3600 -seed 3 -intermeeting \
		-events $$tmp/e.jsonl > $$tmp/inter.txt && \
	grep -q '^intermeeting    n=[1-9]' $$tmp/inter.txt && \
	$$tmp/dtntrace stats -check $$tmp/inter.txt $$tmp/e.jsonl > /dev/null && \
	echo "intermeeting sink: $$(grep '^intermeeting' $$tmp/inter.txt)" && \
	$$tmp/dtnsim -policy OracleUtility -duration 3600 -seed 3 \
		-events $$tmp/f.jsonl > $$tmp/oracle.txt && \
	$$tmp/dtntrace stats -check $$tmp/oracle.txt $$tmp/f.jsonl > /dev/null && \
	echo "truth sink: $$(grep '^policy' $$tmp/oracle.txt), $$(grep '^delivered' $$tmp/oracle.txt)" && \
	$$tmp/dtntrace diff $$tmp/a.jsonl.gz $$tmp/b.jsonl && \
	if $$tmp/dtntrace diff $$tmp/a.jsonl.gz $$tmp/c.jsonl > /dev/null; then \
		echo "trace-smoke: different seeds reported identical" && exit 1; \
	else echo "divergence detected across seeds (expected)"; fi && \
	$$tmp/dtntrace series $$tmp/a.jsonl.gz > $$tmp/series.csv && head -3 $$tmp/series.csv && \
	head -1 $$tmp/series.csv | grep -q ',used_max,created,delivered,delivery_ratio,forwards,policy_drops,fill$$' && \
	$$tmp/dtntrace paths -jsonl $$tmp/d.jsonl > $$tmp/paths.jsonl && [ -s $$tmp/paths.jsonl ] && \
	! grep -v '"seen":' $$tmp/paths.jsonl && \
	printf '0 1 10 60\n0 1 NaN 5\n' > $$tmp/nan.txt && \
	{ $$tmp/dtnsim -contact-trace $$tmp/nan.txt > /dev/null 2> $$tmp/nan.err; [ $$? -eq 1 ]; } && \
	grep -q 'line 2: start: "NaN" is not a finite number' $$tmp/nan.err && \
	! grep -q panic $$tmp/nan.err && \
	echo "NaN contact trace refused: $$(cat $$tmp/nan.err)"

# Crash-safety gate (~5 s): run a sweep uninterrupted for reference TSVs,
# rerun it with a run journal and SIGINT it mid-sweep (graceful drain) once
# the journal holds 10 runs, chop the journal tail to simulate a torn final
# append, then resume — and require the resumed TSVs byte-identical to the
# uninterrupted reference. Two workers run members of the sweep's shared
# contact group (one recorded schedule, replayed by the rest) concurrently,
# and the resume restarts that group with its first members journaled. The
# temporary directory is removed on every exit, failures and interrupts
# included.
RESUME_SMOKE_FLAGS = -run fig8copies -scale 0.5 -nodes 60 -workers 2 -no-chart -quiet
resume-smoke:
	@tmp=$$(mktemp -d) || exit 1; trap 'rm -rf "$$tmp"' EXIT; trap 'exit 130' HUP INT TERM; \
	$(GO) build -o $$tmp/experiments ./cmd/experiments && \
	$$tmp/experiments $(RESUME_SMOKE_FLAGS) -out $$tmp/ref > $$tmp/ref.txt && \
	{ $$tmp/experiments $(RESUME_SMOKE_FLAGS) -journal $$tmp/runs.jsonl \
		-out $$tmp/res > /dev/null 2>&1 & pid=$$!; \
	  while kill -0 $$pid 2>/dev/null && \
		[ "$$(cat $$tmp/runs.jsonl 2>/dev/null | wc -l)" -lt 10 ]; do sleep 0.01; done; \
	  kill -INT $$pid 2>/dev/null; wait $$pid; :; } && \
	truncate -s -7 $$tmp/runs.jsonl && \
	$$tmp/experiments $(RESUME_SMOKE_FLAGS) -journal $$tmp/runs.jsonl -resume \
		-out $$tmp/res > $$tmp/resumed.txt && \
	diff -r $$tmp/ref $$tmp/res && diff $$tmp/ref.txt $$tmp/resumed.txt && \
	echo "resume-smoke: resumed sweep byte-identical to uninterrupted reference"

# Short fuzzing bursts over the external-input parsers.
fuzz:
	$(GO) test ./internal/trace -fuzz=FuzzParseCab -fuzztime=30s
	$(GO) test ./internal/trace -fuzz=FuzzParseONE -fuzztime=30s
	$(GO) test ./internal/trace -fuzz=FuzzParseContacts -fuzztime=30s
	$(GO) test ./internal/graph -fuzz=FuzzParseEdgeList -fuzztime=30s

# CI-sized fuzzing pass: 30 s per fuzzer across every fuzz target.
fuzz-smoke:
	$(GO) test ./internal/trace -fuzz=FuzzParseCab -fuzztime=30s
	$(GO) test ./internal/trace -fuzz=FuzzParseONE -fuzztime=30s
	$(GO) test ./internal/trace -fuzz=FuzzParseContacts -fuzztime=30s
	$(GO) test ./internal/graph -fuzz=FuzzParseEdgeList -fuzztime=30s
	$(GO) test ./internal/config -fuzz=FuzzScenarioJSON -fuzztime=30s

# Regenerate every paper figure + ablations at full scale (91 s of simulation
# at -workers 1 on a 2-vCPU VM, see EXPERIMENTS.md; SVG and HTML output add
# to that).
experiments:
	$(GO) run ./cmd/experiments -run all -seeds 1,2,3 -out results -svg -html results/report.html

# Machine-verify the paper's qualitative claims at full scale.
check:
	$(GO) run ./cmd/experiments -run fig3,fig4,fig8copies,fig8buffer,fig8rate,fig9copies,fig9buffer,fig9rate -check -seeds 1,2,3 -no-chart -quiet

# Quick resilience sweep smoke (fault injection; ~1 min): delivery /
# overhead / latency vs loss, churn, and black-hole intensity.
resilience:
	$(GO) run ./cmd/experiments -run resilience-loss,resilience-churn,resilience-blackhole -scale 0.05 -nodes 24 -out results/resilience -no-chart

# The five example programs, then the root package's Example functions
# (the README's facade snippets), compiled and checked against their output.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/taxifleet
	$(GO) run ./examples/disaster
	$(GO) run ./examples/custompolicy
	$(GO) run ./examples/figures
	$(GO) test -count=1 -run '^Example' .

clean:
	rm -rf results figures-out
