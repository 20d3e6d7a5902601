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
/// shared by the repository and every snapshot so that an entry built
/// in a new snapshot attaches the same detector a prior snapshot used
/// (detectors must survive snapshot swaps while the wrapper record is
/// unchanged). Thread-safe.
class DriftRegistry {
 public:
  void Configure(const DriftConfig& config);

  /// The detector for (site, attribute): the existing one when its
  /// baseline record matches `record`, otherwise a fresh re-baselined
  /// one. Null when drift detection is off.
  std::shared_ptr<DriftState> GetOrCreate(const std::string& site,
                                          const std::string& attribute,
                                          const std::string& record);

  /// Drops the pair's detector so the next GetOrCreate re-baselines
  /// (used when a repair replaces the wrapper).
  void Drop(const std::string& site, const std::string& attribute);

  /// Erases detectors whose key satisfies `dead` — every reload prunes
  /// the pairs its snapshot no longer has.
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
/// then re-apply to every freshly crawled page of that site.
///
/// A snapshot reads one wrapper pack (DESIGN.md §15) — the mmap'd
/// `pack_path`, or the `<root>/<site>/<attribute>.wrapper` tree packed in
/// memory when there is no pack file or it fails to open — plus an
/// overlay that shadows it: hot publishes (`PublishWrapper` self-heal
/// repairs) and, next to a pack file, the records under `root`. Load()
/// compiles nothing. Lookups go through one slot per site, indexed by
/// pack ordinal (then the overlay's sites the pack lacks): the site's
/// first hit builds its compiled entries and fused extractor, and later
/// hits read the slot without a lock.
///
/// Concurrency model (DESIGN.md §11): the request path takes Pin() — a
/// wait-free epoch pin plus one atomic pointer load, no lock — and uses
/// the immutable `Snapshot` it references for the whole request, so a
/// concurrent reload can never show a request a half-updated repository.
/// Load() builds a complete new snapshot entirely off the data path,
/// publishes it with a single atomic store, and hands the old snapshot
/// to an EpochDomain: it is freed, with its pack, only once every reader
/// pinned before the publish has finished. A wrapper file (or pack) that
/// fails to parse is skipped and reported — one corrupt record must not
/// take down serving for every other site.
class WrapperRepository {
 public:
  struct Options {
    /// The wrapper tree — or, with `pack_path`, the overlay directory for
    /// hot publishes. May be empty in pack-only mode.
    std::string root;
    /// Wrapper-pack file (empty = pack `root` in memory). If the pack
    /// fails to open, Load() packs `root` instead, with a logged warning.
    std::string pack_path;
  };

  struct Entry {
    core::WrapperPtr wrapper;
    std::string record;  // The serialized form, for logs / responses.
    /// Executable plan compiled on the site's first hit (XPath step
    /// program over interned ids, BMH skip tables for LR/HLRT). nullptr
    /// when the wrapper kind has no compiled form — the service then
    /// falls back to the interpreted wrapper.
    std::shared_ptr<const core::CompiledWrapper> compiled;
    /// Serialized members of every /extract response up to (and excluding)
    /// "values" — schema header, site, attribute, wrapper record and
    /// repository version are all constant for an entry within a snapshot,
    /// so they are escaped once when the entry is built and spliced into
    /// each response with JsonWriter::RawMembers instead of re-serialized
    /// per request.
    std::string response_prefix;
    /// Per-(site, attribute) drift detector (DESIGN.md §13). Shared with
    /// the repository's drift registry so it survives snapshot swaps
    /// while the record is unchanged; null when self-healing is off.
    std::shared_ptr<DriftState> drift;
  };

  /// A site's attributes, ascending, each with its entry.
  using SiteEntries = std::vector<std::pair<std::string, const Entry*>>;

  class Snapshot {
   public:
    Snapshot() = default;
    ~Snapshot();
    Snapshot(const Snapshot&) = delete;
    Snapshot& operator=(const Snapshot&) = delete;

    /// Load failures, one "path: status" line per bad file.
    std::vector<std::string> errors;
    /// Monotonic generation number; bumped by every successful Load().
    uint64_t version = 0;
    /// The pack this snapshot reads (mapped file or in-memory tree);
    /// never null, and shared with the snapshots that keep it.
    std::shared_ptr<const core::WrapperPack> pack;

    /// The entry for (site, attribute), overlay first. The site's first
    /// hit builds its slot (every attribute parsed and compiled, response
    /// prefix and drift state attached). Valid for the snapshot's
    /// lifetime (hold a pin); null on a miss or an unparseable record.
    const Entry* Find(const std::string& site,
                      const std::string& attribute) const;

    /// The site's fused multi-attribute extractor (one StreamPage build
    /// for all dom_free attributes), built with the site's slot. Null
    /// when the site is unknown or has no dom_free plans — callers fall
    /// back to per-attribute extraction.
    std::shared_ptr<const core::FusedSiteExtractor> FindFused(
        const std::string& site) const;

    /// Every attribute of a site, ascending, the overlay shadowing
    /// same-name pack attributes. Empty for an unknown site.
    const SiteEntries& MaterializeSite(const std::string& site) const;

    /// The entries this snapshot has served so far, by site ordinal (for
    /// /driftz, which lists the detectors of served pairs).
    std::vector<std::pair<std::pair<std::string, std::string>, const Entry*>>
    CachedEntries() const;

    /// Distinct (site, attribute) pairs: the pack's entries plus the
    /// overlay pairs the pack lacks (the repository-size gauge).
    size_t TotalWrapperCount() const { return wrapper_count_; }

   private:
    friend class WrapperRepository;
    struct SiteSlot;
    struct SlotChunk;
    static constexpr size_t kSlotsPerChunk = 1024;

    /// Indexes the overlay against the pack and sizes the slot table;
    /// runs once, before the snapshot is published.
    void Index();
    const SiteSlot* Slot(const std::string& site) const;
    const SiteSlot* BuildSlot(const std::string& site, size_t ordinal) const;

    std::shared_ptr<DriftRegistry> drift_registry_;
    /// site → attribute → record: hot publishes plus, next to a pack
    /// file, the overlay directory. Shadows the pack.
    std::map<std::string, std::map<std::string, std::string>> overlay_;
    /// Overlay sites the pack lacks, ascending; their slot ordinals
    /// follow the pack's.
    std::vector<std::string> overlay_only_sites_;
    size_t wrapper_count_ = 0;
    /// The slot table: chunks of kSlotsPerChunk slots, each chunk
    /// allocated on its first touch. A hit is two acquire loads.
    mutable std::vector<std::atomic<SlotChunk*>> chunks_;
    /// Serializes slot builds; never taken on a hit.
    mutable std::mutex build_mu_;
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

  /// Builds and atomically publishes a new snapshot. With a pack file:
  /// maps it — O(mmap), nothing parsed — and reads the overlay
  /// directory's records. Otherwise, or when the pack file fails to open
  /// (a logged warning): reads the wrapper tree into an in-memory pack,
  /// compiling nothing; NotFound when the root directory is missing (the
  /// previous snapshot, if any, stays published). Per-file failures never
  /// fail the load. Detectors of pairs the new snapshot lacks are
  /// dropped. The replaced snapshot is retired to the epoch domain and
  /// freed once all in-flight readers have moved past it.
  Status Load();

  /// Enables drift detection: every entry of subsequent snapshots gets a
  /// DriftState when its site's slot is built, carried across reloads
  /// while its serialized record is unchanged and re-baselined when the
  /// wrapper (or config) changes. Call before the first Load(); off by
  /// default.
  void SetDriftConfig(const DriftConfig& config);

  /// Hot-publishes one repaired wrapper (the re-induction worker's exit
  /// path): persists it atomically to `<root>/<site>/<attribute>.wrapper`
  /// (write-temp + rename, so restarts keep the repair and a racing
  /// Load() never reads a torn file), then publishes a new snapshot with
  /// the record in its overlay, shadowing the pack's — same epoch
  /// retirement discipline as Load(), so in-flight readers keep
  /// extracting with the incumbent until their pins release. In
  /// pack-only mode (empty root) the publish is in-memory only. The
  /// pair's DriftState is replaced with a fresh one baselined on the
  /// repaired wrapper.
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
  /// to the most recent kLedgerCapacity entries) and, with a root,
  /// durably to `<root>/.repairs.tsv` (append-only TSV, reloaded on first
  /// access so the ledger survives restarts). In pack-only mode (empty
  /// root) the ledger is in memory only, like the publish. `sequence`
  /// and `published_version` are filled in by the repository.
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
