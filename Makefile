GO ?= go
# bench pipes go test into benchjson; pipefail keeps a failing benchmark
# run from silently writing an incomplete BENCH_PR<N>.json.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -c

# BENCH_OUT names the trajectory point `make bench` records. Bump the PR
# number when landing a perf PR so the old point stays committed next to
# the new one and bench-check can diff them.
BENCH_OUT ?= BENCH_PR34.json

.PHONY: check api fmt vet build test race bench benchsmoke bench-check determinism chaos chaos-remote fuzzsmoke perfbench bench-leaks leaks cover profile loc

# check is the full gate: formatting, vet, build, the test suite under
# the race detector (the sweep engine is explicitly designed and tested
# to be race-clean), the end-to-end determinism smoke, the chaos
# harness (kill + corrupt + -resume under injected faults), the
# distributed chaos harness (a real sweepd fleet with one worker
# SIGKILLed mid-batch and another injecting connection faults), a
# short fuzz leg over the reader-vector, pattern-key, checkpoint, row,
# wire-frame and trace decoders and the predictor's successor links, a
# one-iteration benchmark smoke run so the benches cannot silently rot,
# the bench-history regression check over the committed BENCH_PR<N>.json
# records, the end-to-end benchmark module's vet and tests, one short
# run of the benchmark command per workload that fails if the run leaves
# a process behind, and a last check that none of them left a process
# running. api pins the root package's exported surface first.
check: api fmt vet build race determinism chaos chaos-remote fuzzsmoke benchsmoke bench-check perfbench bench-leaks leaks

# api fails the gate when the root package's exported API, as
# `go doc -short .` lists it, differs from the committed api.txt: a new
# or changed export is a deliberate edit of api.txt that review sees.
# Regenerate it with `go doc -short . > api.txt`.
api:
	@$(GO) doc -short . | diff -u api.txt - || \
		{ echo "api: exported API differs from api.txt (regenerate: go doc -short . > api.txt)"; exit 1; }

# leaks fails the gate, naming the processes, if any sweepd, perfbench
# or paperrepro process is still running: every target above must stop
# what it starts (test harnesses start their children with Pdeathsig).
# pgrep's stderr only carries its warning that the pattern is longer
# than a 15-character process name; -x still matches each alternative.
leaks:
	@if pgrep -ax 'sweepd|perfbench|paperrepro' 2>/dev/null; then \
		echo "leaks: the processes above are still running"; exit 1; fi; \
	echo "leaks: no sweepd, perfbench or paperrepro process left running"

# bench-leaks runs the benchmark command, perfbench/run.sh, once per
# workload for 3 s, each run in a session of its own (setsid). It fails,
# naming the run and the processes, if anything of that session is
# still alive after run.sh returns (zombies have exited and do not
# count), and then kills that session. A sweepd, perfbench or
# paperrepro process that started during the run outside its session
# (a daemon that left it, or one the user started) fails the leg too;
# it is named but not killed, since it need not be the run's. A run
# that exits non-zero or does not report "correct": true fails as well.
bench-leaks:
	@for w in predict speculate fleet; do \
		tmp=$$(mktemp -d); \
		before=$$(pgrep -x 'sweepd|perfbench|paperrepro' 2>/dev/null); \
		setsid -w bash -c 'echo $$$$ > "$$1/sid"; exec bash perfbench/run.sh --workload "$$2" --seed 1 --seconds 3 --trace 0' \
			bench-leaks "$$tmp" "$$w" > "$$tmp/out" 2>&1; st=$$?; \
		sid=$$(cat "$$tmp/sid"); \
		for try in 1 2 3 4 5; do \
			left=$$(ps -e -o pid=,sid=,stat=,args= | awk -v s="$$sid" '$$2 == s && $$3 !~ /^Z/'); \
			named=$$(ps -e -o pid=,sid=,stat=,comm=,args= | awk -v s="$$sid" -v old=" $$(echo $$before) " \
				'$$4 ~ /^(sweepd|perfbench|paperrepro)$$/ && $$2 != s && $$3 !~ /^Z/ && index(old, " " $$1 " ") == 0'); \
			[ -z "$$left$$named" ] && break; sleep 1; \
		done; \
		if [ $$st -ne 0 ] || ! tail -n 1 "$$tmp/out" | grep -Eq '"correct": ?true'; then \
			tail -n 20 "$$tmp/out"; echo "bench-leaks: $$w run exited $$st without \"correct\": true"; fail=1; fi; \
		if [ -n "$$left" ]; then \
			echo "$$left"; echo "bench-leaks: the $$w run left the processes above running in its session $$sid; killing the session"; \
			pkill -KILL -s "$$sid" 2>/dev/null; fail=1; fi; \
		if [ -n "$$named" ]; then \
			echo "$$named"; echo "bench-leaks: the processes above started during the $$w run outside its session; not killed"; fail=1; fi; \
		[ -n "$$left$$named" ] || echo "bench-leaks: $$w run (session $$sid) left no process running"; \
		rm -rf "$$tmp"; [ -z "$$fail" ] || exit 1; \
	done

# perfbench vets and tests the end-to-end benchmark module. It has its
# own go.mod (replace specdsm => ../), so `go test ./...` at the root
# skips it; this target is what makes a root API change that breaks the
# benchmark fail the gate.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# loc tracks size next to speed: per package — the root, the simulator
# layers (mem, sim, network, core, protocol, machine, trace), the
# workload generators and the packages beside them (analytic, report,
# fault, wire), the sweep and remote layers, and the CLI layer (every
# command and internal/cli), so the all row counts every non-test Go
# file outside examples/ and perfbench/ —
# the code-only lines (non-blank, non-comment, outside _test.go files),
# all lines of those files, and the exported-API line count
# (`go doc -short`, 0 for a command).
loc:
	@for d in . internal/mem internal/sim internal/network internal/core internal/protocol internal/machine internal/trace \
		internal/workload internal/analytic internal/report internal/fault internal/wire internal/sweep internal/remote \
		cmd/paperrepro cmd/specdsm cmd/sweepd cmd/traceeval cmd/benchcheck cmd/benchjson internal/cli; do \
		ls $$d/*.go | grep -v '_test\.go$$' | xargs awk -v pkg=$$d -v api=$$($(GO) doc -short ./$$d | wc -l) \
			'{ t = $$0; sub(/^[ \t]+/, "", t) } t != "" && substr(t, 1, 2) != "//" { code++ } \
			END { printf "%-18s %5d code lines %5d total lines %4d API lines\n", pkg, code, NR, api }'; \
	done | awk '{ print; code += $$2; total += $$5 } END { printf "%-18s %5d code lines %5d total lines\n", "all", code, total }'

# chaos-remote runs the distributed sweep under real process death and a
# real torn transport: three local sweepd workers serve a fig9 sweep,
# one is SIGKILLed the moment it starts executing a batch (its leased
# jobs die with it), another injects connection drops/short
# reads/delays on every dispatcher link, and the dispatcher's output
# must still be byte-identical to a clean local -parallel 1 run.
chaos-remote:
	$(GO) test -run='^TestChaosRemote$$' -v ./cmd/paperrepro

# chaos runs the kill/corrupt/resume harness with more rounds than the
# copy `go test ./...` runs: checkpointed fig9 sweeps are crashed at
# derived kill points under injected transient faults and delays, their
# checkpoints corrupted (tail truncation or a frame bit flip), and the
# -resume rerun, which keeps each file's longest valid prefix, must
# reproduce a clean -parallel 1 run byte for byte. Rounds are derived
# from their index, so failures replay exactly.
chaos:
	$(GO) test -run='^TestChaos$$' -v ./cmd/paperrepro -args -chaos-rounds=8

# fuzzsmoke runs the differential fuzz targets briefly on every gate:
# the reader-vector ops against the map-backed oracle, the packed
# pattern-key encoding against its bijection/table oracle, resume on
# arbitrary checkpoint bytes (refusals leave the file unchanged, another
# key is always refused, the adopted prefix is the input's own whole
# frames and a second resume drops nothing), the
# RunResult row codec and the wire-frame decoder (no panic, no
# allocation past the input, every valid encoding round-trips), the
# predictor's successor links against a twin that probes for every
# history (link invariants after every operation, identical results),
# and offline trace evaluation on arbitrary bytes seeded with a captured
# em3d trace (an error or a panic-free evaluation whose counts fit the
# trace). Five
# seconds each is a smoke test, not a campaign — run `go test -fuzz`
# with a longer -fuzztime for real exploration; the corpus persists
# under the build cache either way.
fuzzsmoke:
	$(GO) test -run='^$$' -fuzz=FuzzReaderVec -fuzztime=5s ./internal/mem
	$(GO) test -run='^$$' -fuzz=FuzzPatKeyPack -fuzztime=5s ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzObserveLinks -fuzztime=5s ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzCheckpointFrames -fuzztime=5s ./internal/sweep
	$(GO) test -run='^$$' -fuzz=FuzzRowCodec -fuzztime=5s .
	$(GO) test -run='^$$' -fuzz=FuzzEvaluateTrace -fuzztime=5s .
	$(GO) test -run='^$$' -fuzz=FuzzWireFrame -fuzztime=5s ./internal/remote

# cover prints per-package statement coverage over the full test suite.
cover:
	$(GO) test -cover ./...

# determinism byte-compares a reduced-scale full paperrepro run at
# -parallel 1 vs -parallel 8: the sweep engine's ordered-merge contract
# ("output is byte-identical for every worker count") checked end to end
# on every gate run, not just in unit tests. The bracketed wall-clock
# lines are stripped before comparing — they are the one intentionally
# non-deterministic part of the output. Both runs are checkpointed, and
# their .speculation files must be byte-identical too: checkpoint
# contents do not depend on the worker count.
#
# The rtl leg makes the same comparison for the RTL latency sweep, which
# a default run does not include. It is the one study that varies the
# network flight latency, which is part of the arena's machine key.
#
# The third leg checks the same contract across a crash: the same
# default run (every paper artifact), checkpointed, is killed mid-way
# through its speculation study via -crash-after (exit 3 after 9 of the
# study's 21 simulations; the characterization simulates nothing and
# is not counted), must
# leave a non-empty checkpoint behind, and the -parallel 8 -resume
# rerun's output, Figures 7-9 and Tables 3-5 built partly from rows
# replayed from ck.speculation, must be byte-identical to the
# uninterrupted sequential run of the first leg. The crashed run is
# sequential so that it always leaves the same 8 rows saved: at
# -parallel 8 the study's first job, the slowest, usually finishes
# last, and the crash would land before any row is flushed.
determinism:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o $$tmp/paperrepro ./cmd/paperrepro && \
	$$tmp/paperrepro -scale 0.1 -parallel 1 -checkpoint $$tmp/c1 | sed -E 's/\[[^]]*: [0-9].*\]/[time]/' > $$tmp/p1.txt && \
	$$tmp/paperrepro -scale 0.1 -parallel 8 -checkpoint $$tmp/c8 | sed -E 's/\[[^]]*: [0-9].*\]/[time]/' > $$tmp/p8.txt && \
	cmp $$tmp/p1.txt $$tmp/p8.txt && echo "determinism: -parallel 1 == -parallel 8" && \
	cmp $$tmp/c1.speculation $$tmp/c8.speculation && echo "determinism: checkpoint at -parallel 1 == -parallel 8" && \
	$$tmp/paperrepro -only rtl -scale 0.1 -parallel 1 | sed -E 's/\[[^]]*: [0-9].*\]/[time]/' > $$tmp/r1.txt && \
	$$tmp/paperrepro -only rtl -scale 0.1 -parallel 8 | sed -E 's/\[[^]]*: [0-9].*\]/[time]/' > $$tmp/r8.txt && \
	cmp $$tmp/r1.txt $$tmp/r8.txt && echo "determinism: rtl -parallel 1 == -parallel 8" && \
	$$tmp/paperrepro -scale 0.1 -parallel 1 \
		-checkpoint $$tmp/ck -checkpoint-every 2 -crash-after 9 >/dev/null 2>&1; \
	st=$$?; [ $$st -eq 3 ] || { echo "determinism: crashed run exited $$st, want 3"; exit 1; } && \
	[ -s $$tmp/ck.speculation ] || { echo "determinism: no checkpoint left behind"; exit 1; } && \
	$$tmp/paperrepro -scale 0.1 -parallel 8 \
		-checkpoint $$tmp/ck -resume | sed -E 's/\[[^]]*: [0-9].*\]/[time]/' > $$tmp/resumed.txt && \
	cmp $$tmp/p1.txt $$tmp/resumed.txt && echo "determinism: crash + -resume == uninterrupted run"

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench runs every benchmark — the per-table/figure study benches, the
# hot-path microbenches (Observe — including the nine-predictor,
# 4096-block leg whose tables outgrow the caches — KernelSchedule,
# DirectoryServe, CacheHit with the coherence checker on and off), the
# workload-generation leg (every app at the fleet size and at 16 nodes /
# scale 1.0, uncached, so its B/op is the generator's own allocation),
# and the loopback remote-dispatch leg (per-job dispatcher
# overhead: claim/exec/result round-trips over a real TCP connection,
# microseconds per job, so distribution cost stays visible next to the
# simulation benches it amortizes into) — with -benchmem, and records
# ns/op, B/op, allocs/op, and the headline metrics to $(BENCH_OUT) via
# cmd/benchjson.
#
# Bench JSON workflow: the emitted document is
#
#	{ "go_version", "goos", "goarch",
#	  "benchmarks": [ { "name", "iterations",
#	                    "metrics": { "ns/op", "B/op", "allocs/op",
#	                                 ...custom b.ReportMetric units } } ] }
#
# where the custom units are each study's headline scalar (meanVMSP%,
# meanSWIexec%, appbtVMSP@d2%, ...), so a diff of two records shows both
# performance movement and any drift in the reproduced shapes. Each perf
# PR appends a new BENCH_PR<N>.json rather than overwriting the old one;
# the committed series is the repo's performance history and bench-check
# (below) enforces that the newest point does not walk back the previous
# one.
# Study benches run 3 iterations (each is a full deterministic
# simulation; averaging 3 tames scheduling noise, and 3 is the floor at
# which bench-check treats ns/op as a measurement rather than noise);
# the nanosecond-scale hot-path microbenches need real iteration counts
# to produce comparable ns/op — 100000, because 1000 iterations of a
# ~30ns op is a ~30µs sample whose run-to-run swing on a busy machine
# dwarfs the 15% regression budget bench-check enforces. The one
# exception is ObserveColdBlocks, whose per-op cost grows with the
# iteration count (every op allocates a fresh block, so b.N sets the
# table size); it stays at the 1000x its committed baseline used.
# Every nanosecond-scale leg takes 5 samples rather than 3: a ~20ns op
# measured over a few milliseconds swings 15-20% with host scheduling
# weather, and min-of-3 regularly fails to catch a single quiet window
# that min-of-5 does.
# Every benchmark additionally runs repeated -count samples, which
# benchjson folds into one record by taking the per-metric minimum
# (noise is strictly additive, so min-of-K is the robust cost
# estimate); the study benches take 5 samples because minutes of
# saturated CPU invite throttling windows that three consecutive
# samples cannot escape. All logs feed one benchjson run, which merges
# them into a single record. The nanosecond-scale microbench legs run
# FIRST, before the study benches: minutes of saturated CPU leave the
# machine in a throttled state that inflates a ~30ns op by 30-50%,
# which min-of-3 cannot undo when every sample sits inside the hot
# window — measured as a uniform phantom regression on untouched code.
#
# Fig6AnalyticModel gets its own 200x leg in addition to the 3x study
# leg it is swept up in: it is the one microsecond-scale bench in the
# root package (pure analytic model, no simulation), and three 3x
# samples of a ~30us op swing tens of percent run to run. benchjson's
# min-of-K fold across both legs lets the reliable 200x measurement
# stand in for the noisy one.
#
# Two further noise controls, extending the microbenches-first fix:
# GOGC=off pins the collector for the nanosecond-scale legs (the guarded
# paths allocate nothing, so GC only contributes pause noise — a
# background cycle landing inside a 100000x sample reads as a phantom
# ns/op regression), and a short idle sleep between legs lets a
# thermally-saturated single-CPU machine step back down before the next
# leg samples. The study legs keep normal GC: full simulations allocate
# on cold paths by design, and benchmarking them with the heap growing
# unboundedly would measure allocator pressure no real run has.
BENCH_COOLDOWN ?= 5
bench:
	{ GOGC=off $(GO) test -bench='ObserveColdBlocks' -benchmem -benchtime=1000x -count=5 -run='^$$' ./internal/core && \
	  sleep $(BENCH_COOLDOWN) && \
	  GOGC=off $(GO) test -bench='Observe$$/|PredictReaders' -benchmem -benchtime=100000x -count=5 -run='^$$' ./internal/core && \
	  sleep $(BENCH_COOLDOWN) && \
	  GOGC=off $(GO) test -bench=. -benchmem -benchtime=100000x -count=5 -run='^$$' ./internal/sim ./internal/protocol && \
	  sleep $(BENCH_COOLDOWN) && \
	  $(GO) test -bench=LoopbackDispatch -benchmem -benchtime=200x -count=3 -run='^$$' ./internal/remote && \
	  sleep $(BENCH_COOLDOWN) && \
	  $(GO) test -bench=Generate -benchmem -benchtime=1000x -count=5 -run='^$$' ./internal/workload && \
	  sleep $(BENCH_COOLDOWN) && \
	  $(GO) test -bench=Fig6AnalyticModel -benchmem -benchtime=200x -count=3 -run='^$$' . && \
	  sleep $(BENCH_COOLDOWN) && \
	  $(GO) test -bench=. -benchmem -benchtime=3x -count=5 -run='^$$' . ; } \
		| $(GO) run ./cmd/benchjson -o $(BENCH_OUT)

# benchsmoke compiles and runs every benchmark once, without recording.
benchsmoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# bench-check compares the two newest committed BENCH_PR<N>.json records
# and fails on any allocs/op increase or a >15% ns/op regression, or —
# before comparing anything — when the two records' host stamps (CPU
# model, nproc, GOMAXPROCS, written by benchjson) differ. Use
# `go run ./cmd/benchcheck -base BENCH_PR<N>.json` to diff the newest
# record against an arbitrary older baseline instead of the adjacent one.
bench-check:
	$(GO) run ./cmd/benchcheck

# profile runs the full-scale reproduction under -cpuprofile/-memprofile
# (single worker, so the profile samples the simulator rather than the
# sweep fan-out), drops the artifacts under profiles/, and prints the
# top-10 summaries of each — the before/after evidence perf PRs attach.
# Artifacts are overwritten in place and gitignored; copy a "before"
# profile aside prior to making changes.
PROFILE_DIR ?= profiles
profile:
	@mkdir -p $(PROFILE_DIR)
	$(GO) build -o $(PROFILE_DIR)/paperrepro ./cmd/paperrepro
	$(PROFILE_DIR)/paperrepro -scale 1.0 -parallel 1 \
		-cpuprofile $(PROFILE_DIR)/cpu.pprof -memprofile $(PROFILE_DIR)/mem.pprof >/dev/null
	@echo "== CPU top-10 (flat) =="
	@$(GO) tool pprof -top -nodecount=10 $(PROFILE_DIR)/paperrepro $(PROFILE_DIR)/cpu.pprof
	@echo "== Heap top-10 (alloc_space) =="
	@$(GO) tool pprof -top -nodecount=10 -sample_index=alloc_space $(PROFILE_DIR)/paperrepro $(PROFILE_DIR)/mem.pprof
