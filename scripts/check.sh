#!/usr/bin/env sh
# Full local check: what CI runs. The race pass covers the packages
# with concurrency (the experiment fan-out and the shared caches).
set -eu

# Every traced command is stamped on stderr with the seconds the command
# traced above it took and the seconds since the start, so a slow step
# shows by name in the log: in "+ [35s above, t=312s] go build ./..." the
# 35 s are the step on the line above. The script ends in a traced no-op
# that stamps the last step. (dash has no clock of its own: PS4 asks date.)
check_start=$(date +%s)
step_start=$check_start
PS4='+ [$(( $(date +%s) - step_start ))s above, t=$(( (step_start = $(date +%s)) - check_start ))s] '
set -x

cd "$(dirname "$0")/.."

# Formatting is checked, not assumed: any file gofmt would rewrite fails
# the run and is named.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
  echo "gofmt -l is not clean:" >&2
  echo "$unformatted" >&2
  exit 1
fi
# The entry points a Runner used to have, and the printf log hook, stay
# deleted: a Runner runs queries through Prepare/Exec/Run/RunPrepared and
# the server logs through *slog.Logger, nothing else. (benchmark/ is its
# own module and never used them.) So does QueryGroup's copy of the
# SENS-Join protocol: a cluster runs SENSJoin.round with m members. And
# the set algebra on the encoded quadtree and the internal/wire package:
# rounds are charged from sizes alone, nothing runs either. And the join
# kernel's 4096-row slab threshold: a result is allocated at its size.
# And the simulator's second engine: loss, reliable transport and churn
# run on the one (sharded) engine, nothing falls back to a classic loop.
# And the daemon's second epoch loop and its two fixed knobs: every
# query, alone or in a shared batch, runs through execute. And the
# repair switch and the second rebuild: mid-round repair is part of
# reliable recovery, and the runner heals its tree one way. And phase
# A's copying inboxes and the radio hook that bypassed the journal:
# Treecut tuples and key sets forward by reference, tracing is the journal.
# And the per-node delta buffers: a round's deltas are carved from the
# round arena of the sending node's region. And the binary that fetched
# and validated expositions for the shell smokes: the binaries' smokes are
# Go tests that validate what they scrape in-process. And the hex string
# key X8-X10 compared result tables by: a table comparison is a
# tabledigest Digest or Diff. And the runner's trace and transport
# switches and its strict audit field: an execution's transport, loss,
# journal and audit are its run options. And the runner's churn switch
# (an execution's churn is WithChurn), the expvar mirror of the registry
# (/metrics serves it) and the hand-built-deployment constructor (a core
# test helper now). And the radio layer's per-sink charging: the
# reliable-transport accountant extension, the two trace helpers, the
# drop and loss counters and the collector's per-side methods — a radio
# action is one Network.record, an accountant has one Charge.
retired=$(grep -rnE 'EnableReliableTransport|EnableTrace|DisableTrace|AutoAudit|rowSetKey|promcheck|ExecSQL|ExecPrepared|AuditRun\b|RunWithRecovery|NewExec|AuditRound|\.Logf\b|groupNode|groupTuple|onGroupFilter|sendGroupFilter|forwardGroupTuples|StreamUnion|StreamIntersect|StreamContains|sensjoin/internal/wire|slabRows|fallbackFromSharding|noteShardFallback|DisableSharding|shard_fallback|runClassic|bandjoin|detectBandCond|computeFilterBand|DisableBandIndex|semiMatches|bandEntry|runIndependent|acquireGroup|MaxRounds|DrainTimeout|EnableMidRoundRepair|RebuildTreeAvoidingFailures|fullsIn|\bkeySet\b|SetTrace\b|diffScratch|kindRecover|shippedByFlags|AttachChurn|PublishExpvar|NewRunnerFromDeployment|ReliabilityAccountant|traceRel|countDrop|countLost|OnRetx|OnAck' \
  --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark --exclude-dir=.bench_build . || true)
if [ -n "$retired" ]; then
  echo "retired entry points are back in non-test Go:" >&2
  echo "$retired" >&2
  exit 1
fi
# The global loss model and the radio tracer are an execution's: only
# core's arming code (internal/core/arm.go) switches them, for the length
# of one execution, outside package netsim itself.
armed=$(grep -rnE '\.(SetLossRate|SetTracer)\(' --include='*.go' --exclude='*_test.go' \
  --exclude-dir=benchmark --exclude-dir=.bench_build --exclude-dir=netsim . | grep -v '^\./internal/core/arm\.go:' || true)
if [ -n "$armed" ]; then
  echo "loss or a radio tracer switched outside an execution's options:" >&2
  echo "$armed" >&2
  exit 1
fi
# One radio record: in package netsim only Network.record charges the
# accountant and writes a radio instrument, except the give-up count,
# which drain writes as it reports a give-up (the in-flight gauge, a
# level, is the transport's).
ledger=$(awk '/^func /{fn=$0}
  /n\.acct\./ && fn !~ /^func \(n \*Network\) record\(/ {print FILENAME ":" FNR ": " $0}
  /n\.met\.(tx|rx|drop|lost|retx|ack|dup)\./ && fn !~ /^func \(n \*Network\) record\(/ {print FILENAME ":" FNR ": " $0}
  /n\.met\.giveUp\./ && fn !~ /^func \(n \*Network\) drain\(/ {print FILENAME ":" FNR ": " $0}' \
  $(ls internal/netsim/*.go | grep -v '_test\.go$'))
if [ -n "$ledger" ]; then
  echo "a radio action charged or metered outside Network.record:" >&2
  echo "$ledger" >&2
  exit 1
fi
# A collection wave is scheduled per tree level (Sim.ScheduleNodes over
# routing.Tree.Level), never as one deadline event per node: the two
# spellings the per-node loops used stay gone from internal/core.
pernode=$(grep -rnE 'ScheduleNode\((id, id|topology\.BaseStation, id),' \
  --include='*.go' --exclude='*_test.go' internal/core || true)
if [ -n "$pernode" ]; then
  echo "per-node deadline scheduling is back in internal/core:" >&2
  echo "$pernode" >&2
  exit 1
fi
# Every frame of the daemon's protocol has a binary layout: the codec
# does not import encoding/json.
jsonproto=$(grep -rn '"encoding/json"' --include='*.go' --exclude='*_test.go' internal/proto || true)
if [ -n "$jsonproto" ]; then
  echo "internal/proto imports encoding/json; every frame has a binary layout:" >&2
  echo "$jsonproto" >&2
  exit 1
fi
# Node work goes through Sim.ScheduleNode(s); a plain Sim.Schedule is a
# coordinator event (every region stopped), which only netsim's fault
# injection schedules.
coord=$(grep -rn 'Sim\.Schedule(' --include='*.go' --exclude='*_test.go' internal/core || true)
if [ -n "$coord" ]; then
  echo "internal/core schedules coordinator events:" >&2
  echo "$coord" >&2
  exit 1
fi
# Runners are leased, not built: the daemon and the experiment suite get
# theirs from a core.RunnerPool, and the harness's one door to a runner
# of its own is bench.privateRunner (the artefact experiments X8 and
# X9's oracle). Loss, reliable transport, churn and journals lease: they
# are an execution's options, gone when it ends. A second construction
# site is a runner nobody resets.
built=$(grep -rn 'core\.NewRunner(' --include='*.go' --exclude='*_test.go' internal/bench internal/server || true)
case "$built" in
internal/bench/experiments.go:*"return core.NewRunner(setupFor("*) [ "$(printf '%s\n' "$built" | wc -l)" -eq 1 ] ;;
*) false ;;
esac || {
  echo "core.NewRunner( outside bench.privateRunner in internal/bench or internal/server:" >&2
  echo "$built" >&2
  exit 1
}
# Nothing unreachable in the root package, pkg/ or internal/: every
# exported name there has a non-test use or an Example of its package
# that names it, or is a fixture or observer listed with its reason in
# scripts/deadexports/allow.txt, a list that can only shrink.
go run ./scripts/deadexports
go vet ./...
go build ./...
# Besides the packages' own tests, this runs every binary in-process:
# cmd/experiments serves an audited run over HTTP and checks its tables
# against a plain run's, cmd/sensjoind serves concurrent sessions and
# drains on SIGTERM, and sensjoin, sensjoinctl and netviz print what they
# should.
go test ./...
# Lease determinism: which cells share a leased runner depends on the
# worker count, the tables must not.
go run ./cmd/experiments -nodes 400 -parallel 1 2>/dev/null > /tmp/sensjoin-tables-p1.txt
go run ./cmd/experiments -nodes 400 -parallel 4 2>/dev/null > /tmp/sensjoin-tables-p4.txt
cmp /tmp/sensjoin-tables-p1.txt /tmp/sensjoin-tables-p4.txt
go test -race ./...
# Runner-pool race pass, repeated: concurrent leases of one pool, the
# reset on return, the daemon's one-runner pool and the suite's leased
# cells at 1, 2, 4 and 8 workers.
go test -race -count 3 -run 'Pool|PlanShape|Reset|AllDeterministicAcrossParallelism|AllLeasesRunners|ClosedLoopKeepsRunnersWarm' ./internal/core ./internal/netsim ./internal/server ./internal/bench
# Smoke the base station's join benchmarks and the neighbour build: one
# iteration proves the exact join's indexed and reference paths, the
# filter join's shapes (diff, abs, eq, sum, three-way, reference) and the
# count-and-fill neighbour grid at 10k and 100k nodes, a repaired 100k
# set-up that builds its lists once, and a cold 100k δ calibration still
# run.
go test -run=NONE -bench=ExactJoin -benchtime=1x ./internal/core
go test -run=NONE -bench Filter -benchtime 1x ./internal/core
go test -run=NONE -bench=BuildNeighbors -benchtime=1x ./internal/topology
go test -run=NONE -bench='Generate$' -benchtime=1x ./internal/topology
go test -run=NONE -bench=Calibrate -benchtime=1x ./internal/workload
# Audit smoke: one experiment with every execution self-auditing its
# journal (conservation, reconciliation, slot order, filter soundness,
# reliability).
go run ./cmd/experiments -nodes 400 -only E1a -audit > /dev/null
# Loss smoke: the reliable-transport sweep at two loss rates, audited —
# both methods must stay oracle-exact under packet loss.
go run ./cmd/experiments -only L1 -loss 0.05,0.10 -nodes 400 -audit > /dev/null
# Reliable-transport race pass: the ARQ, scoped recovery and the loss
# sweep under the race detector, beyond the general -race run above —
# sharded too: the sharded-journal lanes with loss and ARQ, the round
# fuzzer's corpus across the feature matrix, and the shared rounds of a
# QueryGroup under recovery, churn and loss.
go test -race -run 'Reliable|Recovery|StandDown|Loss|ShardTrace|FuzzRoundIsExact|QueryGroup|WithoutRows|ContributorJoin' ./internal/netsim ./internal/core ./internal/bench
# Sharded-simulator race pass: window workers, cross-region inboxes,
# per-region freelists and the parallel setup paths (neighbor grid,
# BFS tree, plan building) under the race detector.
go test -race -run 'Shard|Parallel' ./internal/netsim ./internal/bench ./internal/routing ./internal/topology
# Scale smoke (X7, time-budgeted): a 50k-node run of both join methods
# on one region and on four, plus a reduced-scale run under the race
# detector. The JSON goes to /tmp: the checked-in BENCH_scale.json is the
# record EXPERIMENTS.md quotes.
go run ./cmd/experiments -only X7 -scale 50000 -shards 1,4 -out /tmp/sensjoin-scale.json > /dev/null
go run -race ./cmd/experiments -only X7 -scale 10000 -shards 4 > /dev/null
# MQO smoke (X8, reduced size): N concurrent continuous queries shared
# vs independent — every per-query table must match its independent
# counterpart. The JSON goes to /tmp, beside the checked-in record.
go run ./cmd/experiments -only X8 -nodes 400 -mqo-n 1,2,4 -out /tmp/sensjoin-mqo.json > /tmp/sensjoin-mqo.txt
if grep -q DIFFER /tmp/sensjoin-mqo.txt; then
  echo "X8: a shared table differs from its independent run:" >&2
  grep DIFFER /tmp/sensjoin-mqo.txt >&2
  exit 1
fi
# MQO race pass: query-group clustering, the shared round, filter
# canonicalization and the round arenas (poisoned after every round, one
# region and four) under the race detector.
go test -race -run 'QueryGroup|Canonical|RoundArena|BuildFilterMsg|MQO' ./internal/core ./internal/query ./internal/bench
# Sharded-trace determinism: the journal a sharded engine records must
# be byte-identical to one region's, with every fault on, and six audit
# passes must stay clean on it; metrics keep the engine sharded.
go test -run 'TestShardTrace|TestShardMetrics' ./internal/core
# Flight-recorder & trace-propagation race pass (beyond the general
# server race run): the bounded ring under concurrent writers/readers,
# and per-member span attribution through a shared query group.
go test -race -run 'Flight|Trace' ./internal/server
# Serving load (X9, time-budgeted): sustained QPS through the daemon
# with every table checked byte-for-byte against direct execution. The
# 1 s smoke goes to /tmp: the checked-in BENCH_serve.json is the full
# 3 s record EXPERIMENTS.md quotes (regenerate it without -serve-seconds).
go run ./cmd/experiments -only X9 -serve-seconds 1 -out /tmp/sensjoin-serve.json > /tmp/sensjoin-serve.txt
grep -q '"ByteIdentical": true' /tmp/sensjoin-serve.json
# Serving race pass: sessions, admission, the prepared cache and shared
# grouping, the wire codec (binary Rows frames, encode-failure and
# protocol-violation answers) and the client's demux and table
# assembly under the race detector.
go test -race ./internal/server ./internal/proto ./pkg/client
# Slow lane: the whole serving path 200 times over. A caller at the
# admission limit is refused only when a slot outlives the frame that ends
# its query, a 1 ns deadline is missed only when the round finishes while
# its caller is descheduled, and a drain loses an epoch only when Close
# races a batch window or a write loop: each shows as a flake of a few
# percent, not as a failure of one run. On a 2-CPU VM the 200 passes take
# 377 s for internal/server (1.9 s a pass) and 66 s for pkg/client, run
# in parallel on 2.6 min of CPU: the lane mostly waits. The default
# 10-minute timeout left too little room, so the lane states its own.
go test -count 200 -timeout 15m ./internal/server ./pkg/client
# The client's read loop decodes Rows chunks in place, out of the one
# body its connection's FrameReader reuses: more interleavings than the
# single -race run above gives.
go test -race -count 3 ./internal/proto ./pkg/client
# Wire-codec fuzz smoke: 5 s per target on the frame reader, the Rows
# decoder and the control decoders (never panic, never allocate beyond
# what the bytes that arrived account for, encode and decode are exact
# inverses).
go test -run '^$' -fuzz '^FuzzReadFrame$' -fuzztime 5s ./internal/proto
go test -run '^$' -fuzz '^FuzzDecodeRows$' -fuzztime 5s ./internal/proto
go test -run '^$' -fuzz '^FuzzDecodeControl$' -fuzztime 5s ./internal/proto
# Query parser fuzz smoke: Parse, Analyze and Fingerprint never panic,
# and a parsed WHERE prints to text that re-parses to the same
# canonical predicate.
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 5s ./internal/query
# Quadtree size-only costing fuzz smoke: SizeBits equals Encode's bit
# count for arbitrary level schedules and key multisets. Minimization is
# off so the 5 s go to new inputs, not to shrinking interesting ones.
go test -run '^$' -fuzz '^FuzzSizeBits$' -fuzztime 5s -fuzzminimizetime 0 ./internal/quadtree
# Decode never panics and rejects cut-short or over-long input; the k-way
# UnionAll equals a plain merge applied set by set.
go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 5s -fuzzminimizetime 0 ./internal/quadtree
go test -run '^$' -fuzz '^FuzzUnionAll$' -fuzztime 5s -fuzzminimizetime 0 ./internal/quadtree
# BWZ fuzz smoke: the counting-sort BWT equals the comparison-sort
# reference and reports ties exactly on periodic blocks; Decompress never
# panics, allocates no more than its input accounts for, and what it
# accepts round-trips.
go test -run '^$' -fuzz '^FuzzBWT$' -fuzztime 5s -fuzzminimizetime 0 ./internal/compress
go test -run '^$' -fuzz '^FuzzBWZDecompress$' -fuzztime 5s -fuzzminimizetime 0 ./internal/compress
# Layer benchmarks, one iteration each: they still run. Serving path
# (frame codec, client round trip), then the simulator round's layers:
# size-only quadtree costing beside Encode, pooled zlib, BWZ and its BWT,
# E8's compressed representation over a 1 500-node image, plan building
# on warm and cold snapshots, one whole SENS-Join round, a Treecut-heavy
# round that is almost all phase A, one external round, and a round's
# packet accounting (with its Reset) at 1 500 and 100 000 nodes.
go test -run '^$' -bench 'Rows|ClientRoundTrip' -benchtime 1x -benchmem ./internal/proto ./pkg/client
go test -run '^$' -bench 'SizeBits|Encode1500|ZlibCompress|BWZ|BWT' -benchtime 1x -benchmem ./internal/quadtree ./internal/compress
go test -short -run '^$' -bench 'BuildPlan|SENSJoinRound|PhaseA|ExternalRound|CollectorCharge|CompressedRep' -benchtime 1x -benchmem ./internal/core ./internal/stats
# The event queue's share of a wave: every node of a 40-level tree gets a
# deadline, at 1 500 and 100 000 nodes, on one heap and on two regions.
go test -run '^$' -bench 'WaveSchedule' -benchtime 1x -benchmem ./internal/netsim
# Shared-state race pass, repeated for more interleavings than the
# general -race run above gives: pooled zlib writers, the snapshot ring
# and concurrent first fill, the calibration memo and its release, and
# the parallel plan fill over a cold snapshot, region workers meeting new
# phase labels in the dense collector at the same instant, sharded
# SENS-Join and external rounds on runner-owned node state, and sharded
# continuous and QueryGroup rounds (per-node delta buffers) beside the
# singleton-cluster-is-a-single-query identity.
go test -race -count 5 -run 'ZlibPooledConcurrent|SnapshotConcurrent|SnapshotFill|CalibrateConcurrent|CalibrationDoesNotRetain|ResetSetupCacheReleases|BuildPlanParallel|CollectorConcurrentCharge|ShardedRoundsReuseRunState|ShardedContinuousAndGroupRounds|SingletonClusterIsASingleQuery' ./internal/compress ./internal/field ./internal/workload ./internal/core ./internal/stats
# The repository benchmark is its own module, outside `go test ./...`:
# without this an internal/ signature change that stops it compiling is
# only found when the pipeline's benchmark run fails.
(cd benchmark && go vet . && go test .)
# One-run-body race pass: the prepared form shared across executions,
# the reflection pin on the Runner's query surface, and mid-round repair
# through both entry spellings.
go test -race -run 'Prepared|Fingerprint|RunnerQuerySurface|Repair' ./internal/core ./internal/query
# Churn smoke (X10, reduced size): the churn-resilience ladder — seeded
# node churn & mobility with mid-round tree repair. The artifact must
# show zero churn-safety audit violations (no silent wrong answers) and
# at least one mid-round repair actually exercised. It goes to /tmp: the
# checked-in BENCH_churn.json is the 150-node, 20-round record.
go run ./cmd/experiments -only X10 -nodes 120 -churn-rounds 6 -churn-rates 0,0.01 -out /tmp/sensjoin-churn.json > /dev/null
grep -q '"violations_total": 0' /tmp/sensjoin-churn.json
if grep -q '"repairs_total": 0' /tmp/sensjoin-churn.json; then
  echo "X10 churn smoke ran no mid-round repair:" >&2
  grep '"repairs_total"' /tmp/sensjoin-churn.json >&2
  exit 1
fi
# Churn race pass: the injector, mid-round repair, the soak test and
# the X10 harness under the race detector, and the sharded-journal lanes
# with churn.
go test -race -run 'Churn|Repair|ShardTrace' ./internal/netsim ./internal/core ./internal/routing ./internal/bench ./internal/trace
# Round fuzz smoke: 10 s of FuzzRoundIsExact over method × shards × loss
# × reliable × churn × epochs (exact or flagged, six audits clean, sharded
# equals one region).
go test -run '^$' -fuzz '^FuzzRoundIsExact$' -fuzztime 10s ./internal/core
# Stamps the last step's time and the total.
: all checks passed
