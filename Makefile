GO ?= go

.PHONY: build test vet race generate-check net-test net-smoke net-kill cache-test serve-test serve-ha fuzz-smoke ci bench microbench bench-short bench-check bench-ab

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Race-detector run of the full suite; the loopback chaos and kill e2es
# exercise the concurrent build, the client's retries and the
# fresh-session rebuilds hardest.
race:
	$(GO) test -race ./...

# Regenerate the d-class ERI kernels and fail if the committed
# kernels_gen.go drifted from what cmd/kernelgen emits — edits belong in
# the generator, never in the generated file.
generate-check:
	$(GO) generate ./internal/integrals
	git diff --exit-code -- internal/integrals/kernels_gen.go

# Transport-focused gate: race-detector run of the network and
# global-array packages.
net-test:
	$(GO) test -race ./internal/net/... ./internal/dist/...

# Fixed-seed loopback chaos smoke: the Fock build over TCP shard
# servers under injected resets/dups/partitions must match the serial
# oracle with exactly-once accumulation, a failed build being retried
# whole under a fresh session.
net-smoke:
	$(GO) test -count=1 -run 'TestLoopback(Chaos)?BuildMatchesSerial' ./internal/net/

# Process-kill chaos gate under the race detector: shard servers
# SIGKILLed mid-build on a seeded schedule and restarted empty; the build
# retries under a fresh session and must match the serial oracle with
# exactly-once accumulation (tasks_total == ns^2). Plus the restarted
# shard's deterministic "unknown session" rejection, the kill-schedule
# runner, and the internal/durable log and atomic-write layer the
# registry and SCF checkpoints rest on (crash-point enumeration, pinned
# framing, fuzz seeds).
net-kill:
	$(GO) test -race -count=1 -run 'TestLoopbackKillRestartBuildMatchesSerial|TestMultiServerKillForgetsSessions|TestServerKill|TestRunServerKills|TestLog|TestWriteFile|FuzzLogReplay' ./internal/net/ ./internal/fault/ ./internal/durable/

# Stored-ERI cache and ΔD gate under the race detector: the store unit
# layer (commit idempotence, budget/spill/drop legs, blob keying), the
# concurrent density-bound publication test, record/replay equivalence
# against the serial oracle, the G-linearity property behind ΔD builds, the SCF
# equivalence of cached ΔD runs, and the blob spill legs over the real
# transport.
cache-test:
	$(GO) test -race -count=1 -run 'TestERIStore|TestUpdateDensityRace|TestStore|TestDelta|TestPerIterationFockStats|TestBlowUpReportedAtProducingIteration|TestBlob|TestSpillE2E' ./internal/integrals/ ./internal/core/ ./internal/scf/ ./internal/net/

# Multi-tenant HF service gate under the race detector: the overload +
# chaos acceptance e2e (burst at 4x admission capacity onto a live
# 2-shard fleet; every accepted job must match its solo energy to 1e-9,
# including across an injected mid-SCF shard kill+restart; rejections
# must be explicit and land in <100ms), plus the multi-session shard
# layer (including the default-budget refusal of an oversized Hello),
# the fair-share/quota/shed scheduler, the job lifecycle unit tests, and
# the 413 refusal of oversized submit and registry bodies.
serve-test:
	$(GO) test -race -count=1 -run 'TestOverloadEndToEnd|TestMultiServer|TestLayoutRoundTrip|TestClassifyFailureCounters|TestFairShare|TestTenantQuotas|TestShedLadder|TestAdmission|TestMemoryBudget|TestDeadline|TestClientCancel|TestPreemption|TestNoPreemption|TestDrain|TestEventStream|Oversized' ./internal/serve/ ./internal/net/

# HA service-tier gate under the race detector: the daemon-kill chaos
# e2e (3 peers sharing a lease registry over a live 2-shard fleet, one
# peer SIGKILLed mid-burst; survivors must adopt its leases and resume
# from checkpoint, every accepted job finishing with its solo energy to
# 1e-9 and clients seeing at most one retriable error), plus the
# fake-clock lease unit suite (acquire/renew/expiry, incarnation
# fencing, double-adopt race with exactly one winner), registry WAL
# recovery (including a hand-built WAL in the pinned on-disk format),
# readiness drain transitions, cross-peer owner redirects, and the
# deterministic daemon-kill schedule.
serve-ha:
	$(GO) test -race -count=1 -run 'TestHAEndToEnd|TestReadyzDrainTransition|TestOwnerRedirect|TestKilledPeerLosesLeasesAndSurvivorAdopts|TestLeaseAcquireRenewExpiry|TestIncarnationFencing|TestDoubleAdoptOneWinner|TestReleaseMakesImmediatelyAdoptable|TestRegistryRecovery|TestRegistryOldFramingRecovers|TestDaemonKillPlanDeterministic|TestRunDaemonKillsExecutesSchedule' ./internal/serve/ ./internal/fault/

# Ten seconds per fuzz target over bytes from disk or the network: the
# durable log's replay (no panic, no allocation past the record bound,
# cuts only at a frame boundary), the wire request/response decoders (no
# panic, decode -> encode round trip), arbitrary decoded requests
# against a live shard server (error statuses, never a panic or a write
# to another session's arrays), SCF checkpoint files (rejected with an
# error, or accepted only when consistent) and hfd submit bodies
# (bounded decode: a 4xx, or a spec that round-trips).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz='^FuzzLogReplay$$' -fuzztime=10s ./internal/durable/
	$(GO) test -run '^$$' -fuzz='^FuzzDecodeRequest$$' -fuzztime=10s ./internal/net/
	$(GO) test -run '^$$' -fuzz='^FuzzDecodeResponse$$' -fuzztime=10s ./internal/net/
	$(GO) test -run '^$$' -fuzz='^FuzzServerApply$$' -fuzztime=10s ./internal/net/
	$(GO) test -run '^$$' -fuzz='^FuzzLoadCheckpoint$$' -fuzztime=10s ./internal/scf/
	$(GO) test -run '^$$' -fuzz='^FuzzJobSpec$$' -fuzztime=10s ./internal/serve/

ci: build vet generate-check race net-smoke net-kill cache-test serve-test serve-ha fuzz-smoke

# Go-testing microbenchmarks (one iteration each; a compile-and-run smoke).
microbench:
	$(GO) test -bench . -benchtime 1x -run NONE .

# Repeatable Fock-build benchmark series; regenerates the committed
# BENCH_fock.json baseline (alkane series, fixed parameters).
bench:
	$(GO) run ./cmd/bench -out BENCH_fock.json

# CI smoke: run the pinned small case and fail if its calibrated wall
# (wall_ns / serial_ns) regressed more than 15% against the baseline, or
# if an ERI kernel microbenchmark regressed more than 35% after serial
# calibration, or if any micro allocs/op exceeds its baseline (0).
bench-short:
	$(GO) run ./cmd/bench -short -check BENCH_fock.json

# Interleaved A/B measurement of the observability layer's overhead.
bench-ab:
	$(GO) run ./cmd/bench -ab 5
