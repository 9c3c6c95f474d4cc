#ifndef PJVM_TXN_SNAPSHOT_MANAGER_H_
#define PJVM_TXN_SNAPSHOT_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <set>

#include "obs/trace.h"

namespace pjvm {

/// \brief Global epoch authority for snapshot reads.
///
/// The epoch protocol is deliberately minimal:
///
///   - `Publish(install)` runs the caller's install callback (which stores
///     new MvccDeltas on the written fragments, stamped with the next epoch)
///     and only *then* advances the global epoch with a release store — all
///     under one publish mutex. A reader that observes epoch E therefore
///     finds every delta with epoch <= E already installed on every
///     fragment: commits become visible atomically across nodes.
///
///   - `AcquireRead()` registers the calling reader at the current epoch
///     (under a separate readers mutex — registration never contends with
///     publishing) and returns that epoch. `ReleaseRead()` unregisters.
///
///   - `Fold(fn)` hands the caller a GC watermark: the minimum epoch any
///     registered reader holds (or the current epoch when none is active).
///     The watermark is computed under the publish mutex *after* any
///     in-flight publish finished advancing the epoch, which closes the
///     race where a fragment folds away a delta while a new reader is
///     registering at the pre-publish epoch: any reader registering from
///     now on gets an epoch >= watermark, and readers registered earlier
///     are counted in the minimum.
///
/// Lock ordering: node latch -> publish_mu_ -> readers_mu_. The publish
/// path never takes node latches, so writers holding latches may call in.
class SnapshotManager {
 public:
  SnapshotManager() = default;

  SnapshotManager(const SnapshotManager&) = delete;
  SnapshotManager& operator=(const SnapshotManager&) = delete;

  /// Last published epoch (acquire: pairs with Publish's release store).
  uint64_t current_epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Registers the caller as a reader at the current epoch and returns it.
  /// Pair with ReleaseRead(). Wait-free relative to publishers.
  uint64_t AcquireRead();
  void ReleaseRead(uint64_t epoch);

  /// Minimum epoch a registered reader holds; current epoch when none.
  uint64_t MinActiveEpoch() const;

  /// Runs `install(next_epoch)` then advances the global epoch to
  /// `next_epoch`, serialized against other publishes and folds. Returns
  /// the epoch assigned. The callback must install every delta for the
  /// committing transaction before returning.
  uint64_t Publish(const std::function<void(uint64_t)>& install);

  /// Runs `fn(watermark)` under the publish lock, where `watermark` is the
  /// minimum active read epoch (see class comment). The callback typically
  /// calls TableFragment::MvccMaybeFold on candidate fragments.
  void Fold(const std::function<void(uint64_t)>& fn);

 private:
  std::atomic<uint64_t> epoch_{0};
  std::mutex publish_mu_;
  mutable std::mutex readers_mu_;
  std::multiset<uint64_t> active_;  // guarded by readers_mu_
};

/// \brief RAII snapshot read scope: pins an epoch for its lifetime and
/// exposes it to nested reads via a thread-local stack, so one logical
/// statement (e.g. MaterializedView::Contents -> ScanAll) reads a single
/// consistent epoch instead of re-acquiring per operator. Opens a
/// "snapshot_read" tracer span tagged with the epoch.
class SnapshotScope {
 public:
  explicit SnapshotScope(SnapshotManager* mgr);
  ~SnapshotScope();

  SnapshotScope(const SnapshotScope&) = delete;
  SnapshotScope& operator=(const SnapshotScope&) = delete;

  uint64_t epoch() const { return epoch_; }
  SnapshotManager* manager() const { return mgr_; }

 private:
  SnapshotManager* mgr_;
  uint64_t epoch_;
  SnapshotScope* prev_;
  SpanGuard span_;
};

/// \brief The image one read operator sees on every node it touches.
///
/// With a snapshot manager (mvcc_reads on) it is the snapshot at one epoch:
/// the innermost SnapshotScope's when the caller opened one on `mgr` (one
/// logical statement reads one consistent epoch across operators), else a
/// fresh pin held for this object's lifetime. With none (mvcc_reads off) it
/// is the live, latched fragments, and constructing it pins and allocates
/// nothing. Node's read primitives take it to choose their image.
class ReadEpoch {
 public:
  explicit ReadEpoch(SnapshotManager* mgr);

  ReadEpoch(const ReadEpoch&) = delete;
  ReadEpoch& operator=(const ReadEpoch&) = delete;

  bool live() const { return live_; }
  /// The pinned epoch; meaningless when live().
  uint64_t value() const { return epoch_; }

 private:
  std::optional<SnapshotScope> scope_;
  uint64_t epoch_ = 0;
  bool live_;
};

}  // namespace pjvm

#endif  // PJVM_TXN_SNAPSHOT_MANAGER_H_
