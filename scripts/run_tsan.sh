#!/usr/bin/env bash
# Builds the repo under ThreadSanitizer (PJVM_SANITIZE=thread) in a separate
# build tree and runs the concurrency-sensitive suites: the executor's own
# tests, the maintenance property tests that drive every parallel phase, the
# lock manager (wait-die, sharding) + maintenance-retry tests,
# the reader/writer node-latch and WAL group-commit suites (plus the
# overlapped 2PC prepare forces), the network accounting tests (concurrent
# Send/Broadcast counters), the observability suites (lock-free tracer buffers,
# concurrent histogram recording, windowed-histogram rotation, tracing-on
# maintenance runs), the MVCC snapshot-isolation suite (readers vs.
# parked/racing writers, version GC), the open-loop driver suite
# (scheduler/worker/writer thread handoff, cross-thread telemetry merges),
# the heavy/light suites (deferred-delta folds racing a wait-die
# blocker on another thread), the GI stale-entry race (global-index
# fetches racing concurrent base deletes), the merged co-clustered storage
# suite (concurrent maintenance transactions editing shared per-node trees
# under fragment-range locks, with abort rollback), the escrow value-lock
# suite (V-lock group increments, V->X upgrade deadlocks, and journal
# rollback racing across writer threads), the deferred-refresh suite
# (a refresh retrying past an older lock holder released from another
# thread), the load-path suite (per-node insert runs on executor workers,
# transactional runs under locking), and the transaction suites (2PC
# commit/abort over the write set, plus four clients running randomized
# transactions on one system).
#
# Usage: scripts/run_tsan.sh [extra ctest -R regex]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build-tsan
FILTER="${1:-NodeExecutor|ParallelEquivalence|NetworkTest|Maintenance|MethodEquivalence|Tracer|LatencyHistogram|CostTracker|TraceMaintenance|WaitDie|MaintenanceRetry|LockManager|EngineLocking|LockShard|NodeLatch|GroupCommit|MultiNodePrepare|LockEscalation|SnapshotIsolation|WindowedHistogram|OpenLoopDriver|HeavyLight|MergedStorage|Escrow|DeferredView|GiStaleEntryRace|LoadPath}"
# An explicit regex replaces the default, transaction suites included.
[ $# -gt 0 ] || FILTER="$FILTER|RandomTxn|SystemTxn"

cmake -B "$BUILD_DIR" -S . -G Ninja -DPJVM_SANITIZE=thread
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target executor_test maintenance_test obs_test trace_maintenance_test \
  lock_test txn_test net_test snapshot_isolation_test openloop_test \
  heavy_light_test merged_storage_test escrow_view_test deferred_test \
  load_path_test
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  ctest --test-dir "$BUILD_DIR" -R "$FILTER" --output-on-failure
echo "TSan run clean."
