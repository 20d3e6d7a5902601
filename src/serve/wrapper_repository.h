#ifndef NTW_SERVE_WRAPPER_REPOSITORY_H_
#define NTW_SERVE_WRAPPER_REPOSITORY_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/epoch.h"
#include "common/result.h"
#include "core/compiled_wrapper.h"
#include "core/fused_matcher.h"
#include "core/wrapper.h"
#include "core/wrapper_pack.h"
#include "serve/drift.h"

namespace ntw::serve {

/// The durable home of per-(site, attribute) drift detector states,
/// shared by the repository and every snapshot so that lazily
/// materialized pack entries attach the same detector a prior snapshot
/// used (detectors must survive snapshot swaps while the wrapper record
/// is unchanged). Thread-safe.
class DriftRegistry {
 public:
  void Configure(const DriftConfig& config);
  bool enabled() const;

  /// The detector for (site, attribute): the existing one when its
  /// baseline record matches `record`, otherwise a fresh re-baselined
  /// one. Null when drift detection is off.
  std::shared_ptr<DriftState> GetOrCreate(const std::string& site,
                                          const std::string& attribute,
                                          const std::string& record);

  /// Drops the pair's detector so the next GetOrCreate re-baselines
  /// (used when a repair replaces the wrapper).
  void Drop(const std::string& site, const std::string& attribute);

  /// Erases detectors whose key satisfies `dead` — directory-backend
  /// reloads prune vanished wrappers. (Pack backends never prune: the
  /// registry only ever holds pairs that actually served traffic.)
  void PruneIf(
      const std::function<bool(const std::pair<std::string, std::string>&)>&
          dead);

 private:
  mutable std::mutex mu_;
  bool enabled_ = false;
  DriftConfig config_;
  std::map<std::pair<std::string, std::string>, std::shared_ptr<DriftState>>
      states_;
};

/// A repository of learned wrappers, keyed by (site, attribute) — the
/// paper's deployment unit: learn once per site from noisy annotations,
/// then re-apply to every freshly crawled page of that site. Two
/// backends share one read API:
///
///   - Directory: `<root>/<site>/<attribute>.wrapper` record files,
///     eagerly parsed + compiled into the snapshot at Load() (reloads
///     are incremental: files whose (mtime, size) are unchanged reuse
///     the previous snapshot's parsed entry).
///   - Pack (DESIGN.md §15): a single mmap'd wrapper-pack file
///     (`--pack`). Load() is O(mmap); cold sites page in on demand and
///     are lazily finalized into a per-snapshot compiled-plan cache on
///     first hit. The directory root, when also given, acts as an
///     eagerly-loaded *overlay delta* on top of the mapped generation —
///     `PublishWrapper` self-heal repairs land there, shadowing the
///     pack entry of the same (site, attribute).
///
/// Concurrency model (DESIGN.md §11): the request path takes Pin() — a
/// wait-free epoch pin plus one atomic pointer load, no lock — and uses
/// the immutable `Snapshot` it references for the whole request, so a
/// concurrent reload can never show a request a half-updated repository.
/// Load() builds a complete new snapshot entirely off the data path,
/// publishes it with a single atomic store, and hands the old snapshot
/// to an EpochDomain: it is freed only once every reader pinned before
/// the publish has finished. With a pack backend the swap publishes
/// *pack generations*: each snapshot owns a shared handle on its
/// mapping, so a reload to a rebuilt pack file leaves in-flight readers
/// on the old mapping until their pins release. A wrapper file (or pack)
/// that fails to parse is skipped and reported — one corrupt record must
/// not take down serving for every other site.
class WrapperRepository {
 public:
  struct Options {
    /// Directory backend root — or, with `pack_path`, the overlay
    /// directory for hot publishes. May be empty in pack-only mode.
    std::string root;
    /// Wrapper-pack file (empty = pure directory backend). If the pack
    /// fails to open, Load() falls back to the directory backend with a
    /// logged warning.
    std::string pack_path;
  };

  struct Entry {
    core::WrapperPtr wrapper;
    std::string record;  // The serialized form, for logs / responses.
    /// Executable plan compiled at load time (XPath step program over
    /// interned ids, BMH skip tables for LR/HLRT). nullptr when the
    /// wrapper kind has no compiled form — the service then falls back to
    /// the interpreted wrapper.
    std::shared_ptr<const core::CompiledWrapper> compiled;
    /// Serialized members of every /extract response up to (and excluding)
    /// "values" — schema header, site, attribute, wrapper record and
    /// repository version are all constant for an entry within a snapshot,
    /// so they are escaped once at load time and spliced into each
    /// response with JsonWriter::RawMembers instead of re-serialized per
    /// request.
    std::string response_prefix;
    /// Per-(site, attribute) drift detector (DESIGN.md §13). Shared with
    /// the repository's drift registry so it survives snapshot swaps
    /// while the record is unchanged; null when self-healing is off.
    std::shared_ptr<DriftState> drift;
  };

  class Snapshot {
   public:
    Snapshot() = default;
    Snapshot(const Snapshot&) = delete;
    Snapshot& operator=(const Snapshot&) = delete;

    /// (site, attribute) → entry. Directory backend: every wrapper on
    /// disk. Pack backend: only the overlay delta (hot publishes +
    /// overlay directory) — pack entries come through Find().
    std::map<std::pair<std::string, std::string>, Entry> wrappers;
    /// Load failures, one "path: status" line per bad file.
    std::vector<std::string> errors;
    /// Monotonic generation number; bumped by every successful Load().
    uint64_t version = 0;
    /// The mapped pack generation backing this snapshot; null for the
    /// directory backend. Shared: an old snapshot keeps its mapping
    /// alive for pinned readers after a reload swaps in a new one.
    std::shared_ptr<const core::WrapperPack> pack;

    /// Overlay first, then the pack: a pack entry is lazily finalized
    /// (record copied, plan built from the fixed layout, response
    /// prefix + drift state attached) into this snapshot's cache on
    /// first hit; later hits return the cached entry. The pointer stays
    /// valid for the snapshot's lifetime (hold a pin). Null on a true
    /// miss or an unparseable pack record.
    const Entry* Find(const std::string& site,
                      const std::string& attribute) const;

    /// The site's fused multi-attribute extractor (one StreamPage build
    /// for all dom_free attributes), built on first use from the
    /// MaterializeSite entries and cached for the snapshot's lifetime.
    /// Null when the site is unknown or has no dom_free plans — callers
    /// fall back to per-attribute extraction.
    std::shared_ptr<const core::FusedSiteExtractor> FindFused(
        const std::string& site) const;

    /// Every attribute of a site, ascending, merging the pack directory
    /// with the overlay (overlay shadows same-name pack attributes).
    /// Pack entries are materialized through the same cache as Find().
    std::vector<std::pair<std::string, const Entry*>> MaterializeSite(
        const std::string& site) const;

    /// The lazily materialized pack entries this snapshot has served so
    /// far (for /driftz, which must see detectors of pack-backed pairs).
    std::vector<std::pair<std::pair<std::string, std::string>, const Entry*>>
    CachedEntries() const;

    /// Overlay + pack entry count (the repository-size gauge).
    size_t TotalWrapperCount() const;

   private:
    friend class WrapperRepository;

    const Entry* MaterializeLocked(const std::string& site,
                                   const std::string& attribute) const;
    std::vector<std::pair<std::string, const Entry*>> MaterializeSiteLocked(
        const std::string& site) const;

    std::shared_ptr<DriftRegistry> drift_registry_;
    /// Guards the lazy caches; the rest of the snapshot is immutable
    /// after publish.
    mutable std::mutex cache_mu_;
    mutable std::map<std::pair<std::string, std::string>,
                     std::unique_ptr<const Entry>>
        cache_;
    /// Site → fused extractor. Caches nullptr for sites that exist but
    /// have no dom_free plans (a cheap "don't retry" marker); unknown
    /// sites are never cached.
    mutable std::map<std::string,
                     std::shared_ptr<const core::FusedSiteExtractor>>
        fused_cache_;
  };

  explicit WrapperRepository(std::string root)
      : WrapperRepository(Options{std::move(root), std::string()}) {}
  explicit WrapperRepository(Options options);

  /// The request path's handle on the published snapshot: an epoch pin
  /// (wait-free — one slot store plus an epoch load, re-validated only
  /// when a reload races) and a raw pointer. No lock, no refcount
  /// contention. Hold it for the whole request; the snapshot cannot be
  /// reclaimed while any pin taken before its retirement is live.
  class PinnedSnapshot {
   public:
    const Snapshot* operator->() const { return snapshot_; }
    const Snapshot& operator*() const { return *snapshot_; }
    const Snapshot* get() const { return snapshot_; }

    PinnedSnapshot(const PinnedSnapshot&) = delete;
    PinnedSnapshot& operator=(const PinnedSnapshot&) = delete;

   private:
    friend class WrapperRepository;
    PinnedSnapshot(EpochDomain* domain, const std::atomic<const Snapshot*>& p)
        : pin_(domain),
          snapshot_(p.load(std::memory_order_seq_cst)) {}
    EpochDomain::Pin pin_;  // Must outlive every dereference of snapshot_.
    const Snapshot* snapshot_;
  };

  /// Builds and atomically publishes a new snapshot. Directory backend:
  /// scans the tree (incrementally — unchanged files reuse the previous
  /// snapshot's parsed entries); NotFound when the root directory is
  /// missing (the previous snapshot, if any, stays published). Pack
  /// backend: (re)opens the pack — O(mmap), nothing parsed — plus an
  /// eager scan of the overlay directory; a pack that fails to open
  /// logs a warning and falls back to the directory backend. Per-file
  /// failures never fail the load. The replaced snapshot is retired to
  /// the epoch domain and freed once all in-flight readers have moved
  /// past it.
  Status Load();

  /// Enables drift detection: every entry of subsequent snapshots (and
  /// every lazily materialized pack entry) gets a DriftState, carried
  /// across reloads while its serialized record is unchanged and
  /// re-baselined when the wrapper (or config) changes. Call before the
  /// first Load(); off by default.
  void SetDriftConfig(const DriftConfig& config);

  /// Hot-publishes one repaired wrapper (the re-induction worker's exit
  /// path): persists it atomically to `<root>/<site>/<attribute>.wrapper`
  /// (write-temp + rename, so restarts keep the repair and a racing
  /// Load() never reads a torn file), then publishes a new snapshot with
  /// the entry swapped in — same epoch retirement discipline as Load(),
  /// so in-flight readers keep extracting with the incumbent until their
  /// pins release. With a pack backend the entry lands in the overlay
  /// map, shadowing the mapped generation's record; in pack-only mode
  /// (empty root) the publish is in-memory only. The pair's DriftState
  /// is replaced with a fresh one baselined on the repaired wrapper.
  Status PublishWrapper(const std::string& site, const std::string& attribute,
                        const core::WrapperPtr& wrapper);

  /// One self-heal publish, scored: what the incumbent was worth and what
  /// the repair scored on the same retained pages under the same ranker —
  /// the before/after quality evidence for every wrapper the system
  /// replaced on its own. Exposed by GET /driftz ("repairs").
  struct RepairRecord {
    int64_t sequence = 0;  // Monotonic per repository, 1-based.
    std::string site;
    std::string attribute;
    double incumbent_score = 0.0;
    double repair_score = 0.0;
    /// Dictionary labels the re-induction learned from.
    int64_t labels = 0;
    /// Snapshot version the repair was published as.
    uint64_t published_version = 0;
  };

  /// Appends one publish to the repair quality ledger: in memory (bounded
  /// to the most recent kLedgerCapacity entries) and durably to
  /// `<root>/.repairs.tsv` (append-only TSV, reloaded on construction so
  /// the ledger survives restarts). `sequence` and `published_version`
  /// are filled in by the repository.
  void RecordRepair(RepairRecord record);

  /// The in-memory ledger tail, oldest first.
  std::vector<RepairRecord> repair_ledger() const;

  /// Wait-free read-side access for the request path.
  PinnedSnapshot Pin() const { return PinnedSnapshot(&epochs_, current_); }

  /// The currently published snapshot as an owning handle; never null
  /// after a successful Load(), empty version-0 snapshot before. Takes a
  /// mutex — tools and tests only; the request path uses Pin().
  std::shared_ptr<const Snapshot> snapshot() const;

  /// Opportunistically frees retired snapshots whose readers have all
  /// quiesced. One relaxed load when nothing is retired — cheap enough
  /// for event loops to call every iteration. Never blocks.
  void ReclaimRetired() const;

  /// Cheap mtime/size scan of the tree (and the pack file). True when
  /// the on-disk state differs from what the published snapshot was
  /// loaded from — the daemon's tick handler calls this and triggers
  /// Load() on change.
  bool PollForChanges() const;

  const std::string& root() const { return root_; }
  const std::string& pack_path() const { return pack_path_; }

 private:
  static constexpr size_t kLedgerCapacity = 128;

  uint64_t DiskFingerprint() const;
  /// Reads `<root>/.repairs.tsv` into ledger_ once (under mu_).
  void EnsureLedgerLoadedLocked() const;
  void AttachDriftStates(Snapshot* next);
  std::shared_ptr<Snapshot> NewSnapshot() const;
  /// Swaps `next` in as the published snapshot (under mu_) and hands the
  /// replaced one to the caller for retirement.
  void SwapSnapshotLocked(std::shared_ptr<Snapshot> next, uint64_t fingerprint,
                          std::shared_ptr<const Snapshot>* old);
  void RetireSnapshot(std::shared_ptr<const Snapshot> old) const;

  std::string root_;
  std::string pack_path_;
  mutable std::mutex mu_;
  /// Owns the published snapshot (compat API + keeps it alive across the
  /// publish). The hot path reads `current_`, which always points at the
  /// same object `snapshot_` owns.
  std::shared_ptr<const Snapshot> snapshot_;
  std::atomic<const Snapshot*> current_{nullptr};
  mutable EpochDomain epochs_;
  uint64_t loaded_fingerprint_ = 0;
  /// Per-file (mtime, size) of the last successful directory scan — the
  /// incremental-reload memo (under mu_).
  std::map<std::string, std::pair<uint64_t, uint64_t>> file_meta_;
  /// (mtime, size) of the currently mapped pack file, so an unchanged
  /// pack is not remapped on every reload (under mu_).
  std::pair<uint64_t, uint64_t> pack_meta_{0, 0};
  /// Detector states, shared with every snapshot (its own lock).
  std::shared_ptr<DriftRegistry> drift_registry_;
  /// Repair quality ledger (under mu_): most recent kLedgerCapacity
  /// publishes, oldest first; ledger_sequence_ counts all of them ever.
  /// Mutable: lazily loaded from disk on first (possibly const) access.
  mutable std::vector<RepairRecord> ledger_;
  mutable int64_t ledger_sequence_ = 0;
  mutable bool ledger_loaded_ = false;
};

}  // namespace ntw::serve

#endif  // NTW_SERVE_WRAPPER_REPOSITORY_H_
