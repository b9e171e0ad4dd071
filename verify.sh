#!/bin/sh
# Repo verification gate: formatting, vet, build, and the race-enabled
# test suite.
#
#	./verify.sh         # full gate (several minutes: experiment suites)
#	./verify.sh -short  # skip the multi-second experiment regenerations
set -e
short=""
for arg in "$@"; do
	case "$arg" in
	-short) short="-short" ;;
	*)
		echo "usage: $0 [-short]" >&2
		exit 2
		;;
	esac
done
set -x
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: needs formatting:" "$unformatted" >&2
	exit 1
fi
go vet ./...
go build ./...
go test -race $short ./...
# The architecture rules stated over the parsed source (only internal/simclock
# sleeps, only driverutil charges a platform's latency — an engine holds its
# stage's clock but never charges it —, the optimizer and the cost learner name
# no bundled platform, the executor never searches the conversion graph, only
# cmd/ and bench/ read the environment, and the import boundaries: core imports
# no platform, executor or optimizer, no engine imports another, the root
# package imports neither distexec nor cluster, neither distexec nor the result
# cache imports the DFS) are tests of internal/archtest, run by the line above.
# Benchmark smoke: one iteration of the codec benchmarks, so they compile
# and run even when nobody records numbers.
go test -run=NONE -bench=BenchmarkEncodeQuantum -benchtime=1x ./internal/core
# Codec fuzz smoke: ten seconds of FuzzReadQuantaStream beyond its seeds (which
# run in the suite): the stream reader never panics, never hands on a column
# batch inside a quantum, and what it accepts re-encodes to as many quanta.
go test -run=NONE -fuzz=FuzzReadQuantaStream -fuzztime=10s ./internal/core
# Serving-path smoke: one iteration of what every job on a caching server pays
# before its stages — a fingerprinting pass over a plan compiled from 20 k
# registered records (the content was hashed at registration; tens of
# microseconds, not milliseconds) and the optimization of the two-operator
# plan a cache hit leaves.
go test -run=NONE -bench=BenchmarkFingerprintRegistered20k -benchtime=1x ./latin
go test -run=NONE -bench=BenchmarkOptimizeCacheHitPlan -benchtime=1x ./internal/optimizer
# Source-path smoke: optimizing a plan over a sampled DFS file (a lookup once
# the file's version is sampled) and parsing the TPC-H lineitem lines.
go test -run=NONE -bench=BenchmarkOptimizeDFSSource -benchtime=1x ./internal/optimizer
go test -run=NONE -bench=BenchmarkParseRecordLine -benchtime=1x ./internal/datagen
# Chain-kernel smoke: one iteration of the narrow-chain benchmarks and of the
# columnar agg-chain benchmark (the vectorized grouped-aggregation kernel),
# plus the differential crosscheck of every engine's chain kernels against
# the reference interpreter (platformtest.Interpret). The compiled kernel is
# the only narrow path, rows (one []any per partition) the one partition form
# in the engines, channels and kernels — quanta files expand their batch frames
# to rows at the channel boundary, and a kernel runs only the column batches it
# builds itself — driverutil/blocking.go the only exchange, worker dispatch and
# blocking-operator table and driverutil/platform.go the only platform frame
# (typed Engine[T], RegisterOps, one DFS channel descriptor), so the grep keeps
# the per-operator fork, a second partition carrier (the segment runs, their
# channel and block readers and the kernels' entry points for decoded batches),
# the per-engine shuffles, the untyped harness, the hand-written mapping
# closures and their switches from coming back. The optimizer is the only planner: the executor's own path search, its
# any-form fallback, its plan merge and the optimizer option they leaned on are
# in the same grep, and no non-test file of internal/executor may search the
# conversion graph. The executor's run record is the only store of what a
# stage did: the monitor's own accumulation, the executor's per-job dictionary
# watermark, the second copy of each cardinality, the fleet worker's copy of
# the usage sampler and the profile builder that took a plan beside a result
# are in the grep as well, and so is the optimizer's m-to-n chain mapping
# (chain patterns, covered operators, a template's own cost key): operators
# fuse at execution time only, in driverutil.PlanFusion. So is the optimizer's
# price table keyed by substrings of a step's name: an execution operator
# declares its cost on its mapping. So are spark's and flink's own PageRank and
# spark's own map-partitions runner, and what the simulated-time seam
# (simclock.Clock) replaced: driverutil's millisecond sleep, the DFS throttle
# knob and the engines' second names for driverutil.NoOverheadMs. So are the
# text readers driverutil.ReadTextParts replaced: the whole-file line reader
# beside it and spark's own one-partition-per-block loop over the store's
# block lines. The gate covers verify.sh too; the [x] brackets keep its own
# line from matching.
go test -run=NONE -bench='NarrowChain|ColumnarAggChain' -benchtime=1x ./internal/platform/spark ./internal/platform/flink
go test -run=NONE -bench='BenchmarkShuffle|BenchmarkRangeShuffle|BenchmarkUDFReduceByChain' -benchtime=1x ./internal/platform/driverutil
go test -run='TestCrossCheckFusedAgainstUnfused|TestFusedFig9' .
if grep -rn 'RHEEM_NO_FUS[E]\|FusionDisable[d]\|RHEEM_NO_COLUMNA[R]\|ColumnarDisable[d]\|NewSegRD[D]\|shuffleB[y]\|rangeShuffl[e]\|parallelPart[s]\|fanOu[t](\|mergeRun[s]\|poolEr[r]\|driverutil\.Dat[a]\b\|one := func(k core\.Kin[d]\|bc core\.BroadcastCt[x], round\|fetchAn[y]\|mergePlan[s]\|acceptableChannel[s]\|KnownCard[s]\|outerPlanO[f]\|dictCol[s]\|[wW]orkerUsag[e]\|OutCard[s]\|monitor\.Ne[w](\|Monitor\.Recor[d](\|BuildProfil[e]\|InArityO[f]\|OutArityO[f]\|kindRegistr[y]\|registeredKin[d]\|FusibleKin[d]\|udfRolesO[f]\|bindUD[F]\|ChainPatter[n]\|RegisterChai[n]\|ChainAlternative[s]\|DirectAlternative[s]\|CoveredB[y]\|CostKeyOrNam[e]\|OwnCos[t]\|Cover[s]:\|\.Cover[s]\b\|defaultParamsFo[r]\|func (e \*engine) pageRan[k]\|func (e \*engine) mapPart[s]\|SleepM[s](\|ThrottleMBp[s]\|const NoOverheadMs = driverutil\.NoOverheadM[s]\|SegmentedDatase[t]\|ChannelSegment[s]\|SplitSegment[s]\|RowSegment[s]\|RowPart[s]\|RunSegment[s]\|CloneForWrit[e]\|SegmentsO[f]\|NeutralSegment[s]\|ReadQuantaFileSegment[s]\|ReadDFSQuantaBlockSegment[s]\|ReadTextLine[s]\|readTextFil[e]\|DFS\.ReadBlockLine[s]' --include='*.go' --include='verify.sh' .; then
	echo "a deleted fork (per-operator narrow path, a partition carrier beside rows, a per-engine shuffle or dispatch, the untyped stage harness, a hand-written mapping closure, the executor's second planner, a second store of stage statistics, a second description of an operator kind, a second fusion or mapping mechanism, a name-keyed price table, a per-engine PageRank or map-partitions, a sleep or sentinel beside the simulated-time seam, a text reader beside driverutil.ReadTextParts) or its switch is back" >&2
	exit 1
fi
# One implementation per whole-input kind: map-partitions, zip-with-id, sample
# and PageRank are arms of driverutil.ApplyBlocking, so the chosen engine never
# changes what they return; no general engine has an arm of its own for them.
if grep -rnE --include='*.go' 'case .*core\.Kind(MapPar[t]|ZipWithI[D]|Sampl[e]|PageRan[k])\b' internal/platform/spark internal/platform/flink internal/platform/streams | grep -v '_test\.go:'; then
	echo "a general engine runs map-partitions, zip-with-id, sample or PageRank itself: each has one implementation, in driverutil.ApplyBlocking" >&2
	exit 1
fi
if grep -n 'opTime[s]\|sync\.Mute[x]\|func (m \*Monito[r])' internal/monitor/monitor.go; then
	echo "internal/monitor accumulates again: it reads the executor's run record and keeps nothing of its own" >&2
	exit 1
fi
# One store, one writer: outside tests and bench/, record entries are appended
# in one function, Executor.run, and the health check is the monitor's.
writers=$(grep -rn 'Entries = append(' --include='*.go' . | grep -v '_test\.go:\|^\./bench/' | cut -d: -f1 | sort -u)
writerFuncs=$(awk '/^func /{fn=$0} /Entries = append\(/{print fn}' internal/executor/executor.go | sort -u)
if [ "$writers" != "./internal/executor/executor.go" ] || [ "$writerFuncs" != "$(grep '^func (ex \*Executor) run(' internal/executor/executor.go)" ]; then
	echo "the run record has more than one writer: $writers" >&2
	exit 1
fi
# One operator table: a kind's roles are spelled out in core/optable.go alone
# (the role list), and a missing UDF is reported by its check alone — outside
# the reference interpreter, no file of internal/platform reports one itself.
roleFiles=$(grep -rln --include='*.go' '"keyrigh[t]"\|"leftnum[s]"' . | grep -v '_test\.go$')
if [ "$roleFiles" != "./internal/core/optable.go" ]; then
	echo "the UDF role names are spelled out outside the operator table: $roleFiles" >&2
	exit 1
fi
if grep -rn --include='*.go' 'lacks [a]' internal/platform | grep -v '_test\.go:\|^internal/platform/platformtest/interpret\.go:'; then
	echo "an engine or kernel reports a missing UDF itself: core.Operator.CheckUDFs, run once per stage, is the one check" >&2
	exit 1
fi
if grep -n 'KindReduceB[y]' internal/platform/driverutil/blocking.go; then
	echo "the blocking table runs a reduce-by again: every reduce-by is its chain's terminator (RunChainParts)" >&2
	exit 1
fi
if grep -n 'MismatchFactor(' internal/progressive/progressive.go; then
	echo "internal/progressive compares cardinalities itself: the health check is monitor.HealthCheck" >&2
	exit 1
fi
if grep -rn 'io\.ReadAl[l]' --include='*.go' internal/storage/dfs | grep -v '_test\.go:'; then
	echo "internal/storage/dfs grows a block by io.ReadAll: read a block with readBlock, into one buffer of its recorded size" >&2
	exit 1
fi
if grep -n 'ReadBlockLine[s]\|OpenBloc[k]\|ReadLine[s](' internal/optimizer/cardinality.go; then
	echo "the DFS cardinality resolver reads block data: it reads the store's per-version LineSample" >&2
	exit 1
fi
if [ "$(grep -rn 'Name: "df[s]"' --include='*.go' . | grep -vc '_test\.go:')" -gt 1 ]; then
	echo "the dfs channel descriptor is spelled out more than once (use driverutil.DFSChannel)" >&2
	exit 1
fi
# The UDF-panic and partition-ownership properties hold under the race
# detector by name, so -short keeps them.
go test -race -count=1 -run='TestUDFPanicFailsStage|TestCallerOwnedInputSurvivesMutatingUDF|TestCollectionSinkOutputIsCallerOwned' ./internal/platform/platformtest
# And the whole-input kinds answer alike on every engine: map-partitions,
# zip-with-id and the three sample methods equal the reference interpreter
# pinned to streams, spark and flink, a shuffle-first sample in a loop walks
# the same windows, and spark's and flink's PageRank ranks agree.
go test -race -count=1 -run='TestWholeInputKindsAgreeAcrossEngines' .
# And a shuffle-first sample keeps its permutation for the run of its loop
# yet draws what a sampler built per round draws: 40 rounds of a Repeat in
# order, a DoWhile whose sampled input changes length every round, two runs
# of one plan on one context and two samples in one wave, pinned to streams,
# spark and flink; after round 0 a round allocates its window, not the
# permutation.
go test -race -count=1 -run='TestShuffleFirstLoopRunIsExact|TestShuffleFirstLoopRunRebuildsOnNewLength|TestShuffleFirstLoopRunTwoSamplesOneWave' .
go test -race -count=1 -run='TestSampleLoopRunMatchesFresh|TestSampleLoopRunAllocations' ./internal/platform/driverutil
# The platform frame likewise: the registry pinned byte for byte, the toy
# platform built on the shared frame, and two first jobs paying one boot.
go test -race -count=1 -run='TestRegistryGolden|TestPluggingANewPlatform|TestNewPlatformChosenOnMerit' .
# And "the plan the optimizer priced is the plan the executor runs": random
# pinned plans and loop plans all run, SGD runs under fast simulation, a replan
# reruns nothing, and the conversions of a run are the planned ones.
go test -race -count=1 -run='TestEveryOptimizedPlanRuns|TestReplanRunsNothingTwice|TestFastSimulationSGD|TestConversionsAreThePlannedOnes' .
# And "one run record": every stage execution, loop rounds and replans
# included, is one entry that the spans, the stage counter, the profile and the
# monitor summary all agree on; the dictionary-column counter follows the
# process total job after job; the cost learner is fed loop bodies.
go test -race -count=1 -run='TestRunRecordIsComplete|TestDictColumnsCountedOnce|TestLogCollectionIncludesLoopBodies' .
go test -race -count=1 -run='TestIterativeTopologyLogsItsBody' ./internal/costlearn
# And the result cache's identity rules: closures from one UDF factory
# registered under different names never share a fingerprint (the second job
# used to be served the first's groups), and a registered collection is hashed
# at registration, never by a job's cache probe.
go test -race -count=1 -run='TestFactoryClosuresDoNotShareFingerprint' .
go test -race -count=1 -run='TestRegisteredCollectionHashedOnce' ./internal/rescache
go test -race -count=1 -run='TestBootConcurrentFirstJobs' ./internal/platform/driverutil
# And the wall pays simulated latency as requested: over one clock the time
# slept is at least the total asked for and exceeds it by at most one
# overshoot, a fresh clock inherits no credit, goroutines sharing a clock
# never spend its credit twice, a stretched stage records the time it asked
# for, and every stage of a run, loop rounds included, charges on the run's
# one clock while two runs at once hold two.
go test -race -count=1 -run='TestClockPaysTheTotalRequested|TestFreshClockInheritsNoCredit|TestConcurrentChargesPayTheTotal|TestChargeReturnsAtLeastTheRequest' ./internal/simclock
go test -race -count=1 -run='TestStretchRecordsTheRequest|TestBootQuotesAndCharges' ./internal/platform/driverutil
go test -race -count=1 -run='TestOneClockPerRun' ./internal/executor
# And one latency declaration per platform: each of the six bundled platforms
# runs at its package's paper values (none under FastSimulation), is quoted
# its context boot plus its stage latency before its first stage and its stage
# latency after it; a loop prices a context boot once per plan, read once per
# optimization; the cache marker prices a subtree from planCost's parts; and
# an engine config's latency may set only what the engine charges.
go test -race -count=1 -run='TestPaperLatencies|TestQuoteBeforeAndAfterFirstStage|TestEngineLatencyAcceptsOnlyWhatItCharges' .
go test -race -count=1 -run='TestLoopPaysTheContextBootOnce|TestLoopReadsEachQuoteOnce|TestMarkedSubtreeCostIsItsPlanCostParts' ./internal/optimizer
# And a text source is read in line-aligned input splits: for 1, 2, 4 and 7
# splits wanted, over files of one, two and five blocks and the edge cases
# (empty, no final newline, empty lines, a line longer than a block, a line
# over three blocks, CRLF), the splits concatenate to dfs.ReadLines; a
# one-block file still gives spark and flink a split per worker; the SGD model
# trained from DFS on streams matches its pinned weights bit for bit. The
# exchange places every quantum where the naive bucket-append exchange does,
# in order.
go test -race -count=1 -run='TestTextSplitsCoverFile|TestExchangeMatchesBucketAppend' ./internal/platform/driverutil
go test -race -count=1 -run='TestTextSourceSplitsOneBlock' ./internal/platform/spark ./internal/platform/flink
go test -race -count=1 -run='TestSGDModelBitIdentical' .
# And every reduce-by is its chain's terminator: a UDF reduce-by folded inside
# its chain gives the partitions, counts and barriers of the materialize →
# combine → exchange path it replaced, a run of the word-count chain allocates
# under twice its words' own KV boxes (no slice of the chain's whole output),
# and a reduce-by lacking a UDF fails at compile on every engine.
go test -race -count=1 -run='TestUDFReduceByAbsorbedMatchesKeyedPath|TestUDFReduceByChainAllocations' ./internal/platform/driverutil
go test -race -count=1 -run='TestReduceByLackingUDFFailsAtCompile' ./internal/platform/platformtest
# And one operator table: a registered kind is classified by its entry
# everywhere, the fingerprint's role walk is pinned over all fourteen roles,
# the table's UDF check allocates nothing and covers loop bodies, a stage
# reports a missing UDF before any kernel runs, a fragment outside the table
# (an unknown kind, a port its consumer lacks) is a decode error, never a
# panic, and a toy kind gets validation, fingerprinting and shipping from one
# entry. A fragment's data travels inline both ways over a real round trip,
# inline input bytes that do not decode are a 400, and a stage the scheduler
# declines pins local with its reason.
go test -race -count=1 -run='TestFingerprintGoldenAllRoles|TestRegisteredKindIsClassifiedByTheTable|TestRegisterKind|TestOperatorArities|TestCheckUDFs|TestValidateChecksUDFsInLoopBodies' ./internal/core
go test -race -count=1 -run='TestRunStageChecksUDFsFirst' ./internal/platform/driverutil
go test -race -count=1 -run='TestDecodeFragmentChecksTheTable|TestToyKindFromOneTableEntry|TestWorkerRejectsBadFragments|TestLoopbackInlineExecution|TestRunStagePins' ./internal/distexec
# And single-flight computes once: a won claim is re-probed before the job
# computes (the forced interleaving by name, the two concurrent properties
# twenty times each under the race detector).
go test -race -count=1 -run='TestSessionReprobesAWonClaim' ./internal/rescache
go test -race -count=20 -run='TestSingleFlightComputeOnce' ./internal/rescache
go test -race -count=20 -run='TestConcurrentIdenticalJobsComputeOnce' ./restapi
# And a DFS text source costs its bytes once per job: the store samples a file
# once per version (samplers racing a rewriter never keep a stale sample),
# estimating a plan over a sampled file costs the same at 2 k and 200 k lines,
# and the one TSV field parser agrees with the ParseInt-then-ParseFloat
# cascade it replaced, allocating no error per string field.
go test -race -count=1 -run='TestLineSampleOncePerVersion|TestLineSampleRacesRewrites' ./internal/storage/dfs
go test -race -count=1 -run='TestEstimateCardsFlatInFileSize' ./internal/optimizer
go test -race -count=1 -run='TestParseRecordLineMatchesCascade' ./internal/datagen
# And a job leaves no state behind that the next one pays for: a relational
# stage's result or load is a result set on its channel, never a table in the
# store that nothing drops (Q5 used to grow the heap by 64 KB per job).
go test -race -count=1 -run='TestResultsLeaveNoTablesBehind' ./internal/platform/relstore
go test -race -count=1 -run='TestQ5LeavesStoreAsLoaded' ./apps/datacivilizer
# Columnar smoke: the fixed declarative pipelines (narrow chain and grouped
# aggregation, free choice and pinned to streams/spark/flink, plus the two
# relstore pushdown plans) must match the reference interpreter — sink
# multisets and per-operator cardinalities — and must have run at least one
# batch column-wise. The ColumnarNarrowChain benchmark is covered by the
# NarrowChain smoke above.
go test -count=1 -run='TestCrossCheckColumnar' .
# Metrics lint: a fully-wired server (cache, cluster node, runtime sampler)
# runs real jobs, then every registered rheem_* metric must carry HELP text
# — an undocumented metric fails the gate.
go test -count=1 -run='TestMetricsLint' ./restapi
# Cluster smoke: three loopback peers. WordCount computed on one peer is
# served from the distributed cache by another (remote hit via
# rheem_cluster_remote_hits_total); /v1/cluster/metrics sums a counter
# across all three peers; and a routed job's stitched trace contains the
# serving peer's subtree, every grafted span peer-attributed.
go test -race -count=1 -run='TestClusterRemoteCacheHit|TestClusterMetricsAggregation|TestClusterRoutedTraceStitch' ./restapi
# Distributed execution smoke: a 2-peer -cluster-exec fleet runs a job with
# stages executing remotely (results equal to single-node, trace stitched,
# profile peer-attributed, no peer's DFS ever holding a distexec file),
# survives the remote peer dying mid-run, and a 3-peer fleet proves via
# /v1/cluster/metrics that remote executions landed on at least two peers;
# a fleet without -cluster-exec dispatches nothing and mounts no worker
# endpoint.
go test -race -count=1 -run='TestClusterDistexec' ./restapi
