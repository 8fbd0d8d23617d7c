# CI entry points. `make ci` is the gate: formatting, vet, the static
# verification layer (lint), build, a build for Windows and macOS, the race
# detector over the parallel executor, the full test suite (allocation pins
# included), the CLI bad-input smoke, a short fuzz of the store's record
# decoder and of the cache coherence protocol, and one pass of the claims
# benchmark.

GO ?= go

.PHONY: ci lint fmt-check vet dwslint dwsverify build cross test race bench claims-smoke cli-smoke fuzz-smoke mutants loc oracles oracles-check profile profile-diff report metrics trace update-goldens serve stream-probe

ci: fmt-check vet lint build cross race test cli-smoke fuzz-smoke claims-smoke

# Static verification layer: the determinism linter over the simulator
# packages and the ISA program verifier over every benchmark kernel.
lint: fmt-check vet dwslint dwsverify

dwslint:
	$(GO) run ./cmd/dwslint ./internal

dwsverify:
	$(GO) run ./cmd/dwsverify -divergence -memaccess -costmodel

# Regenerate every golden file in one pass (all golden-pinned tests take
# the same -update flag): obs exports, report run-doc and exhibit
# goldens, and the workloads analysis reports (divergence, memory access,
# cost model), scheduling-dump digests and trace-order digests.
update-goldens:
	$(GO) test ./internal/obs/... ./internal/report/... ./internal/workloads/... ./internal/serve/... -update

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# The tree builds on the other platforms it names a system-call constant for
# (Store.Load opens with syscall.O_NONBLOCK). Nothing else builds for them.
cross:
	GOOS=windows $(GO) build ./...
	GOOS=darwin $(GO) build ./...

test:
	$(GO) test ./...

# The race run is `go test -race -short` over the packages with concurrent
# code: Session use (singleflight, prefetch's worker pool, the disk store),
# the observability exports and the daemon's end-to-end paths (concurrent
# submissions, SSE subscribers racing the publisher). Under -short the tests
# of Session and store concurrency make their check through Session.Suite on
# Filter and FFT, the two cheapest benchmarks, instead of on whole-suite
# exhibits, and the exhibit-shape tests, which add no concurrent path, skip.
# RACE_SKIP holds what the detector cannot judge. TestJumpEqualsCrawl and
# TestRecycledMachineEqualsFresh drive their machines on the test goroutine
# (no Session, no prefetch, no goroutine), so the detector has nothing to
# report in them. The allocation pins (Test*Allocs, Test*AllocFree) run on
# the test goroutine too, and under -race AllocsPerRun also counts the
# detector's own allocations, which vary from run to run (TestStoreOpenAllocs
# read 21-23 where it reads 19 without it); TestSuiteMemHitAllocs, which pins
# the prefetch pool's per-call cost, is one of them. `make test` runs every
# test in full. See EXPERIMENTS.md "make race on two benchmarks" for the
# wall time and the coverage check. The second line adds the one concurrent
# path outside those packages: several machines building one benchmark
# through workloads' memo of prepared inputs at once.
RACE_SKIP = ^(TestJumpEqualsCrawl|TestRecycledMachineEqualsFresh|Test\w+Allocs|Test\w+AllocFree)$$
race:
	$(GO) test -race -short -skip '$(RACE_SKIP)' ./internal/report/... ./internal/obs/... ./internal/serve/...
	$(GO) test -race -run '^TestMemoConcurrentBuild$$' ./internal/workloads

# The full exhibit set at -j 1 vs -j GOMAXPROCS, one run each: the
# executor's wall-clock speedup on this host. Timing claims are judged with
# the claims benchmark (bench/), not with this.
bench:
	$(GO) test -bench FullReport -benchtime 1x -run '^$$' .

# The claims benchmark (bench/, a module of its own that `go test ./...`
# does not see): its unit tests, then set-up plus one pass of every
# workload with all its correctness checks (~20 s). Measuring is
# `sh bench/run.sh`; see bench/README.md.
claims-smoke:
	$(GO) test -C bench -short ./...
	sh bench/run.sh -smoke

# The command-line programs on bad input: -h exits 0 or 2, and an unknown
# scheme, benchmark, -param or exhibit id, a zero cache size, a -scale that is
# not a power of two, a -values entry that is not a number, a dwstrace -wpu
# the machine does not have, a dwstrace -format that dwsim writes instead
# (chrome, csv), a timeline with a zero interval (dwsim -timeline with
# -obsevery 0), a negative -j or a dwsimd -cachemb that is negative or
# overflows is one line on stderr and exit status 1, never a panic; and
# dwsweep along Figure 16's axis prints Figure 16's DWS/Conv column
# (cmd/smoke_test.go; `make test` runs it too).
# -count=1 because the test builds and runs the programs as child processes,
# which the Go test cache cannot see: a cached pass may predate an edit.
cli-smoke:
	$(GO) test ./cmd -run TestCLISmoke -count=1

# Fuzz the result store's record decoder for 15 s: it writes through unsafe
# pointers on bytes read from disk. FuzzDecodeRecord drives both entry
# points, decodeRecord and the in-place key check plus Result decode of
# Store.Load. The corpus stays in the Go build cache; a failing input is
# written under internal/report/testdata/fuzz. Then 15 s of FuzzCoherence:
# the memory hierarchy's MESI invariants over a random L1 count and L2 MSHR
# budget (failing inputs go under internal/mem/testdata/fuzz).
fuzz-smoke:
	$(GO) test ./internal/report -run '^$$' -fuzz FuzzDecodeRecord -fuzztime 15s
	$(GO) test ./internal/mem -run '^$$' -fuzz FuzzCoherence -fuzztime 15s

# Plant each fault of mutants_test.go's table (the ones earlier changes
# showed the tests catch) through `go test -overlay` and require a failing
# test for every one; -v prints the tests that killed each. Not part of ci:
# it runs the named packages' tests once per mutant (about three minutes on two
# cores). A row whose old string no longer occurs exactly once fails.
mutants:
	$(GO) test -tags mutants -run '^TestMutants$$' -count=1 -v -timeout 30m .

# Non-test Go lines per package and in total, bench/ (a module of its own)
# and testdata fixtures excluded: the size figure CHANGES.md reports next to
# ns/op.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' ! -path '*/testdata/*' | \
		xargs wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

# Everything the simulator prints that a refactor must not move, as one
# directory: run it at the parent commit and at the change, then
# `diff -r` the two. Full report stdout at -j 1 (with every CSV) and -j 8,
# the three static-analysis reports, one run and the disassembly of every
# benchmark, the run documents of that run (-stats: every wpu.Stats field
# and the RunDoc layout, with the host-dependent wall_seconds written as
# 0), two dwsweep runs with their -stats documents (the suite against
# DWS, and one benchmark under one scheme), and a scheduling-state dump
# every 2000 cycles (split ids, masks, PCs, states) of two divergent kernels
# under three schemes — the only output that sees the order splits are
# created and merged in — and dwsim's sampler timeline of one of them
# (per-WPU occupancy, residency, slot waiters, MSHRs). About two minutes on
# two cores; stderr (timing lines) is not captured.
ORACLE_BENCHES = KMeans Merge
ORACLE_SCHEMES = DWS.ReviveSplit DWS.AggressSplit.BL Slip.BranchBypass
oracles:
	@test -n "$(OUT)" || { echo "usage: make oracles OUT=dir"; exit 1; }
	mkdir -p $(OUT)/csv
	$(GO) run ./cmd/dwsreport -nocache -j 1 -csv $(OUT)/csv > $(OUT)/report.j1.txt
	$(GO) run ./cmd/dwsreport -nocache -j 8 > $(OUT)/report.j8.txt
	$(GO) run ./cmd/dwsim -bench all -nocache -stats $(OUT)/dwsim.stats.raw > $(OUT)/dwsim.all.txt
	sed 's/"wall_seconds": [^,]*/"wall_seconds": 0/' $(OUT)/dwsim.stats.raw > $(OUT)/dwsim.stats.json
	rm $(OUT)/dwsim.stats.raw
	$(GO) run ./cmd/dwsim -bench all -disasm > $(OUT)/dwsim.disasm.txt
	$(GO) run ./cmd/dwsverify -divergence -memaccess -costmodel > $(OUT)/dwsverify.txt
	$(GO) run ./cmd/dwsweep -nocache -param l2lat -values 10,30,300 -stats - > $(OUT)/dwsweep.l2lat.txt
	$(GO) run ./cmd/dwsweep -nocache -bench Filter -param wst -values 4,16 -alt "" -stats - > $(OUT)/dwsweep.wst.txt
	for b in $(ORACLE_BENCHES); do for s in $(ORACLE_SCHEMES); do \
		$(GO) run ./cmd/dwstrace -bench $$b -scheme $$s -every 2000 > $(OUT)/dwstrace.$$b.$$s.txt || exit 1; \
	done; done
	$(GO) run ./cmd/dwsim -bench KMeans -scheme DWS.ReviveSplit -nocache -timeline $(OUT)/timeline.KMeans.csv -obsevery 2000 >/dev/null

# "Byte-identical to REF" as one command: `make oracles` on a copy of REF and
# on the working tree, then `diff -r`; no output but the last line and exit 0
# mean the change moved nothing the simulator prints. REF is unpacked with
# `git archive` into a temporary directory (nothing to register or prune,
# unlike a worktree) and built with this Makefile, so it may predate the
# oracles target. About four minutes on two cores.
oracles-check:
	@test -n "$(REF)" || { echo "usage: make oracles-check REF=<git ref>"; exit 1; }
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && mkdir $$tmp/src && \
	git archive -o $$tmp/src.tar $(REF) && tar -xf $$tmp/src.tar -C $$tmp/src && \
	$(MAKE) -f $(CURDIR)/Makefile -C $$tmp/src oracles OUT=$$tmp/ref && \
	$(MAKE) oracles OUT=$$tmp/here && \
	diff -r $$tmp/ref $$tmp/here && echo "oracles identical to $(REF)"

# Profile one live simulation (cpu.pprof + mem.pprof) of BENCH at input scale
# SCALE (e.g. `make profile BENCH=LU SCALE=16`); inspect with e.g.
#   go tool pprof -top cpu.pprof
#   go tool pprof -top -sample_index=alloc_objects mem.pprof
# and, for what a run keeps rather than what it churns, the in-use view
# (it exposed a split arena that grew with run length):
#   make profile BENCH=KMeans SCALE=16
#   go tool pprof -top -sample_index=inuse_space mem.pprof
SCALE ?= 1
profile:
	$(GO) run ./cmd/dwsim -bench $(BENCH) -scheme DWS.ReviveSplit -scale $(SCALE) -nocache \
		-cpuprofile cpu.pprof -memprofile mem.pprof

# Compare two CPU profiles (before/after an optimisation): every sample in
# BASE is subtracted from AFTER, so improvements show as negative flat time.
# Typical loop (see README "Finding the next hot path"):
#   make profile && mv cpu.pprof cpu.before.pprof
#   ... edit ...
#   make profile && make profile-diff BASE=cpu.before.pprof AFTER=cpu.pprof
BASE  ?= cpu.before.pprof
AFTER ?= cpu.pprof
profile-diff:
	$(GO) tool pprof -top -nodecount 25 -diff_base $(BASE) $(AFTER)

# Run the simulation-as-a-service daemon (see README "Running the
# server"): POST /v1/jobs, GET /v1/results/{key}, SSE streaming,
# /metrics. ADDR overrides the listen address.
ADDR ?= :8091
serve:
	$(GO) run ./cmd/dwsimd -addr $(ADDR)

# The traced-job memory probe (not part of ci, a few seconds): a fresh `dwsimd
# -nocache` on PROBE_ADDR runs one traced KMeans job at the daemon's largest
# scale, its SSE stream is read to the end, and the stream's bytes and
# frames are printed. The stream is then read a second time, a traced run of
# its own for the second subscriber, and must `cmp` identical to the first;
# each read prints the seconds it took. Last comes the daemon's VmHWM (Linux
# /proc), before the daemon is stopped. OUT=file keeps the stream, e.g. to
# `cmp` it against another commit's.
PROBE_ADDR ?= 127.0.0.1:18092
PROBE_JOB = {"schema_version":1,"bench":"KMeans","knobs":{"scheme":"DWS.ReviveSplit","scale":8},"trace":true}
stream-probe:
	@tmp=$$(mktemp -d) && pid= && trap '[ -n "$$pid" ] && kill $$pid 2>/dev/null; rm -rf "$$tmp"' EXIT && \
	$(GO) build -o $$tmp/dwsimd ./cmd/dwsimd && \
	{ $$tmp/dwsimd -addr $(PROBE_ADDR) -nocache 2>$$tmp/err & pid=$$!; } && \
	for i in $$(seq 100); do curl -sf http://$(PROBE_ADDR)/healthz >/dev/null && break; sleep 0.1; done && \
	id=$$(curl -sf -d '$(PROBE_JOB)' http://$(PROBE_ADDR)/v1/jobs | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p') && \
	test -n "$$id" && curl -sfN -o $$tmp/s.sse -w 'live read: %{time_total} s\n' \
		http://$(PROBE_ADDR)/v1/jobs/$$id/stream && \
	echo "stream: $$(wc -c < $$tmp/s.sse) bytes, $$(grep -c '^event: ' $$tmp/s.sse) frames" && \
	curl -sfN -o $$tmp/r.sse -w 'second read: %{time_total} s\n' \
		http://$(PROBE_ADDR)/v1/jobs/$$id/stream && \
	cmp $$tmp/s.sse $$tmp/r.sse && echo "second stream: identical" && \
	grep VmHWM /proc/$$pid/status && \
	if [ -n "$(OUT)" ]; then cp $$tmp/s.sse $(OUT); fi

# Regenerate the paper's exhibits with the parallel executor.
report:
	$(GO) run ./cmd/dwsreport

# Headless cycle accounting: the stall-breakdown exhibit (top-down
# taxonomy per scheme) plus its CSV under metrics/.
metrics:
	$(GO) run ./cmd/dwsreport -only stalls -csv metrics

# One instrumented run: Chrome trace (load trace.json in
# https://ui.perfetto.dev), interval timeline CSV, and run-metrics JSON.
BENCH ?= KMeans
trace:
	$(GO) run ./cmd/dwsim -bench $(BENCH) -scheme DWS.ReviveSplit \
		-trace trace.json -timeline timeline.csv -stats stats.json
