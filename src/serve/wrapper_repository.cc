#include "serve/wrapper_repository.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "common/file_util.h"
#include "common/strings.h"
#include "common/obs_export.h"
#include "core/wrapper_store.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace ntw::serve {

namespace fs = std::filesystem;

namespace {

struct RepoMetrics {
  obs::Counter* reloads;
  obs::Counter* load_errors;
  obs::Counter* snapshots_retired;
  obs::Counter* snapshots_freed;
  obs::Counter* publishes;
  /// Entries parsed and compiled into a snapshot's site slots.
  obs::Counter* pack_materializations;
  obs::Gauge* wrappers;
  obs::Gauge* version;
  /// Sites in the snapshot's pack, mapped or packed in memory.
  obs::Gauge* pack_sites;
  /// Time from a snapshot's retirement (new one published) to its actual
  /// free — how long the epoch quiescence point took to pass. Large
  /// values mean a reader pinned an old snapshot for a long time.
  obs::Histogram* reload_quiesce_micros;

  static RepoMetrics& Get() {
    static RepoMetrics m{
        obs::Registry::Global().GetCounter("ntw.repo.reloads"),
        obs::Registry::Global().GetCounter("ntw.repo.load_errors"),
        obs::Registry::Global().GetCounter("ntw.repo.snapshots_retired"),
        obs::Registry::Global().GetCounter("ntw.repo.snapshots_freed"),
        obs::Registry::Global().GetCounter("ntw.repo.publishes"),
        obs::Registry::Global().GetCounter("ntw.repo.pack_materializations"),
        obs::Registry::Global().GetGauge("ntw.repo.wrappers"),
        obs::Registry::Global().GetGauge("ntw.repo.version"),
        obs::Registry::Global().GetGauge("ntw.repo.pack_sites"),
        obs::Registry::Global().GetHistogram(
            "ntw.serve.reload_quiesce_micros"),
    };
    return m;
  }
};

/// FNV-1a over a byte view — the fingerprint accumulator.
void HashBytes(std::string_view bytes, uint64_t* hash) {
  for (char c : bytes) {
    *hash ^= static_cast<unsigned char>(c);
    *hash *= 1099511628211ULL;
  }
}

void HashInt(uint64_t value, uint64_t* hash) {
  for (int i = 0; i < 8; ++i) {
    *hash ^= (value >> (i * 8)) & 0xFF;
    *hash *= 1099511628211ULL;
  }
}

/// (mtime, size) of one file; {0, 0} when unreadable.
std::pair<uint64_t, uint64_t> StatFile(const std::string& path) {
  std::error_code ec;
  auto mtime = static_cast<uint64_t>(
      fs::last_write_time(path, ec).time_since_epoch().count());
  if (ec) return {0, 0};
  auto size = static_cast<uint64_t>(fs::file_size(path, ec));
  if (ec) return {0, 0};
  return {mtime, size};
}

/// Every /extract response member before "values" is fixed per entry
/// within a snapshot; serialize once through the same JsonWriter calls
/// the service used to make per request — stripping the enclosing braces
/// leaves exactly the member bytes to splice.
std::string BuildResponsePrefix(const std::string& site,
                                const std::string& attribute,
                                const std::string& record, uint64_t version) {
  obs::JsonWriter json;
  BeginSchemaDocument(json, "ntw-serve-extract", 1);
  json.KV("site", site);
  json.KV("attribute", attribute);
  json.KV("wrapper", record);
  json.KV("repository_version", static_cast<int64_t>(version));
  json.EndObject();
  std::string document = json.Take();
  return document.substr(1, document.size() - 2);
}

}  // namespace

void DriftRegistry::Configure(const DriftConfig& config) {
  std::lock_guard<std::mutex> lock(mu_);
  config_ = config;
  enabled_ = config.enabled;
  if (!enabled_) states_.clear();
}

std::shared_ptr<DriftState> DriftRegistry::GetOrCreate(
    const std::string& site, const std::string& attribute,
    const std::string& record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!enabled_) return nullptr;
  auto key = std::make_pair(site, attribute);
  auto it = states_.find(key);
  if (it != states_.end() && it->second->record() == record) {
    // Unchanged wrapper: carry the detector (and its baseline) over so
    // a routine reload does not restart warmup.
    return it->second;
  }
  auto state = std::make_shared<DriftState>(site, attribute, record, config_);
  states_[key] = state;
  return state;
}

void DriftRegistry::Drop(const std::string& site,
                         const std::string& attribute) {
  std::lock_guard<std::mutex> lock(mu_);
  states_.erase({site, attribute});
}

void DriftRegistry::PruneIf(
    const std::function<bool(const std::pair<std::string, std::string>&)>&
        dead) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = states_.begin(); it != states_.end();) {
    if (dead(it->first)) {
      it = states_.erase(it);
    } else {
      ++it;
    }
  }
}

/// One site's compiled entries and fused extractor, immutable once its
/// slot is published.
struct WrapperRepository::Snapshot::SiteSlot {
  std::string site;
  std::vector<Entry> storage;  // Reserved up front: `entries` points in.
  SiteEntries entries;
  std::shared_ptr<const core::FusedSiteExtractor> fused;
};

/// Value-initialized by `new SlotChunk()`: every slot starts null.
struct WrapperRepository::Snapshot::SlotChunk {
  std::atomic<const SiteSlot*> slots[kSlotsPerChunk];
};

WrapperRepository::Snapshot::~Snapshot() {
  for (const auto& cell : chunks_) {
    SlotChunk* chunk = cell.load(std::memory_order_acquire);
    if (chunk == nullptr) continue;
    for (const auto& slot : chunk->slots) {
      delete slot.load(std::memory_order_acquire);
    }
    delete chunk;
  }
}

void WrapperRepository::Snapshot::Index() {
  wrapper_count_ = static_cast<size_t>(pack->header().entry_count);
  for (const auto& [site, attributes] : overlay_) {
    bool in_pack = pack->FindSite(site).has_value();
    if (!in_pack) overlay_only_sites_.push_back(site);
    for (const auto& [attribute, record] : attributes) {
      if (!in_pack || !pack->FindEntry(site, attribute).has_value()) {
        ++wrapper_count_;
      }
    }
  }
  size_t sites = pack->site_count() + overlay_only_sites_.size();
  chunks_ = std::vector<std::atomic<SlotChunk*>>(
      (sites + kSlotsPerChunk - 1) / kSlotsPerChunk);
}

const WrapperRepository::Snapshot::SiteSlot*
WrapperRepository::Snapshot::Slot(const std::string& site) const {
  size_t ordinal = 0;
  if (auto pack_site = pack->FindSite(site)) {
    ordinal = pack_site->ordinal();
  } else {
    auto it = std::lower_bound(overlay_only_sites_.begin(),
                               overlay_only_sites_.end(), site);
    if (it == overlay_only_sites_.end() || *it != site) return nullptr;
    ordinal = pack->site_count() +
              static_cast<size_t>(it - overlay_only_sites_.begin());
  }
  // The hit path: two acquire loads, no lock.
  const SlotChunk* chunk =
      chunks_[ordinal / kSlotsPerChunk].load(std::memory_order_acquire);
  if (chunk != nullptr) {
    const SiteSlot* slot =
        chunk->slots[ordinal % kSlotsPerChunk].load(std::memory_order_acquire);
    if (slot != nullptr) return slot;
  }
  return BuildSlot(site, ordinal);
}

const WrapperRepository::Snapshot::SiteSlot*
WrapperRepository::Snapshot::BuildSlot(const std::string& site,
                                       size_t ordinal) const {
  std::lock_guard<std::mutex> lock(build_mu_);
  std::atomic<SlotChunk*>& chunk_cell = chunks_[ordinal / kSlotsPerChunk];
  SlotChunk* chunk = chunk_cell.load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    chunk = new SlotChunk();
    chunk_cell.store(chunk, std::memory_order_release);
  }
  std::atomic<const SiteSlot*>& cell = chunk->slots[ordinal % kSlotsPerChunk];
  // Another thread may have built the slot while this one waited.
  if (const SiteSlot* built = cell.load(std::memory_order_relaxed)) {
    return built;
  }

  // The site's records, ascending; an overlay record shadows the pack's.
  std::map<std::string, std::string_view> records;
  if (auto pack_site = pack->FindSite(site)) {
    for (size_t i = 0; i < pack_site->entry_count(); ++i) {
      if (auto entry = pack_site->entry(i)) {
        records.emplace(std::string(entry->attribute()), entry->record());
      }
    }
  }
  auto overlay = overlay_.find(site);
  if (overlay != overlay_.end()) {
    for (const auto& [attribute, record] : overlay->second) {
      records[attribute] = record;
    }
  }

  // The one place an entry is parsed, compiled, and given its response
  // prefix and detector. Records arrive trimmed (WrapperPackBuilder::Add
  // strips a file's newline).
  auto slot = std::make_unique<SiteSlot>();
  slot->site = site;
  slot->storage.reserve(records.size());
  std::vector<
      std::pair<std::string, std::shared_ptr<const core::CompiledWrapper>>>
      plans;
  for (const auto& [attribute, record] : records) {
    std::string text(record);
    Result<core::WrapperPtr> wrapper = core::DeserializeWrapper(text);
    if (!wrapper.ok()) continue;  // An unparseable record is a miss.
    Entry& entry = slot->storage.emplace_back();
    entry.record = std::move(text);
    entry.wrapper = std::move(*wrapper);
    entry.compiled = core::CompiledWrapper::Compile(*entry.wrapper);
    entry.response_prefix =
        BuildResponsePrefix(site, attribute, entry.record, version);
    entry.drift = drift_registry_->GetOrCreate(site, attribute, entry.record);
    slot->entries.emplace_back(attribute, &entry);
    plans.emplace_back(attribute, entry.compiled);
  }
  slot->fused = core::FusedSiteExtractor::Build(std::move(plans));
  RepoMetrics::Get().pack_materializations->Add(
      static_cast<int64_t>(slot->storage.size()));
  cell.store(slot.get(), std::memory_order_release);
  return slot.release();
}

const WrapperRepository::Entry* WrapperRepository::Snapshot::Find(
    const std::string& site, const std::string& attribute) const {
  const SiteSlot* slot = Slot(site);
  if (slot == nullptr) return nullptr;
  auto it = std::lower_bound(
      slot->entries.begin(), slot->entries.end(), attribute,
      [](const std::pair<std::string, const Entry*>& entry,
         const std::string& name) { return entry.first < name; });
  if (it == slot->entries.end() || it->first != attribute) return nullptr;
  return it->second;
}

std::shared_ptr<const core::FusedSiteExtractor>
WrapperRepository::Snapshot::FindFused(const std::string& site) const {
  const SiteSlot* slot = Slot(site);
  return slot == nullptr ? nullptr : slot->fused;
}

const WrapperRepository::SiteEntries&
WrapperRepository::Snapshot::MaterializeSite(const std::string& site) const {
  static const SiteEntries kNoEntries;
  const SiteSlot* slot = Slot(site);
  return slot == nullptr ? kNoEntries : slot->entries;
}

std::vector<std::pair<std::pair<std::string, std::string>,
                      const WrapperRepository::Entry*>>
WrapperRepository::Snapshot::CachedEntries() const {
  std::vector<std::pair<std::pair<std::string, std::string>, const Entry*>>
      out;
  for (const auto& chunk_cell : chunks_) {
    const SlotChunk* chunk = chunk_cell.load(std::memory_order_acquire);
    if (chunk == nullptr) continue;
    for (const auto& cell : chunk->slots) {
      const SiteSlot* slot = cell.load(std::memory_order_acquire);
      if (slot == nullptr) continue;
      for (const auto& [attribute, entry] : slot->entries) {
        out.push_back({{slot->site, attribute}, entry});
      }
    }
  }
  return out;
}

WrapperRepository::WrapperRepository(Options options)
    : root_(std::move(options.root)),
      pack_path_(std::move(options.pack_path)),
      drift_registry_(std::make_shared<DriftRegistry>()) {
  auto empty = NewSnapshot();  // No sites until the first Load().
  empty->pack = *core::WrapperPack::FromBytes(
      core::WrapperPackBuilder().Build(), "(empty)");
  empty->Index();
  snapshot_ = std::move(empty);
  current_.store(snapshot_.get(), std::memory_order_seq_cst);
}

std::shared_ptr<WrapperRepository::Snapshot> WrapperRepository::NewSnapshot()
    const {
  auto snapshot = std::make_shared<Snapshot>();
  snapshot->drift_registry_ = drift_registry_;
  return snapshot;
}

uint64_t WrapperRepository::DiskFingerprint() const {
  // (path, mtime, size) of the pack file and every wrapper file, folded
  // in sorted order. Any publish — even one keeping mtime granularity-
  // equal sizes — that adds, removes or rewrites a file with a new
  // timestamp changes this.
  uint64_t hash = 1469598103934665603ULL;  // FNV offset basis.
  auto fold = [&hash](const std::string& path) {
    auto [mtime, size] = StatFile(path);
    HashBytes(path, &hash);
    HashInt(mtime, &hash);
    HashInt(size, &hash);
  };
  if (!pack_path_.empty()) fold(pack_path_);
  if (!root_.empty()) {
    std::vector<std::string> unlisted;
    (void)core::ForEachWrapperFile(
        root_,
        [&fold](const std::string&, const std::string&,
                const std::string& path) { fold(path); },
        &unlisted);
  }
  return hash;
}

Status WrapperRepository::Load() {
  uint64_t fingerprint = DiskFingerprint();
  auto next = NewSnapshot();

  // A pack file: map it (a reload maps it afresh — the new snapshot's
  // slots are cold either way). A failure warns and packs the directory
  // instead — a bad pack must not take down a daemon that still has its
  // wrapper tree.
  if (!pack_path_.empty()) {
    auto pack = core::WrapperPack::Open(pack_path_);
    if (pack.ok()) {
      next->pack = std::move(*pack);
    } else {
      std::fprintf(stderr,
                   "[repo] warning: %s — falling back to the wrapper "
                   "directory\n",
                   pack.status().ToString().c_str());
      next->errors.push_back(pack_path_ + ": " + pack.status().ToString());
    }
  }

  if (next->pack != nullptr) {
    // Next to a pack file, the wrapper tree is the overlay; a missing
    // overlay directory is fine.
    if (!root_.empty()) {
      core::WrapperPackBuilder overlay;
      (void)core::AddWrapperTree(root_, &overlay, &next->errors);
      next->overlay_ = overlay.records();
    }
  } else if (root_.empty()) {
    // No directory and no (working) pack: nothing to serve from.
    if (!next->errors.empty()) {
      return Status::FailedPrecondition(next->errors.back());
    }
    return Status::InvalidArgument("repository has neither root nor pack");
  } else {
    // The wrapper tree, read and validated into an in-memory pack;
    // nothing is compiled until a site's first hit.
    core::WrapperPackBuilder builder;
    NTW_RETURN_IF_ERROR(core::AddWrapperTree(root_, &builder, &next->errors));
    NTW_ASSIGN_OR_RETURN(next->pack,
                         core::WrapperPack::FromBytes(builder.Build(), root_));
  }

  // Drop the detectors of pairs the new snapshot lacks, so a pair that
  // vanishes and comes back later starts a fresh baseline.
  drift_registry_->PruneIf(
      [&next](const std::pair<std::string, std::string>& key) {
        auto site = next->overlay_.find(key.first);
        if (site != next->overlay_.end() && site->second.count(key.second)) {
          return false;
        }
        return !next->pack->FindEntry(key.first, key.second).has_value();
      });

  RepoMetrics& metrics = RepoMetrics::Get();
  metrics.reloads->Add(1);
  metrics.load_errors->Add(static_cast<int64_t>(next->errors.size()));
  std::shared_ptr<const Snapshot> old;
  {
    std::lock_guard<std::mutex> lock(mu_);
    SwapSnapshotLocked(std::move(next), fingerprint, &old);
  }
  RetireSnapshot(std::move(old));
  return Status::OK();
}

void WrapperRepository::SetDriftConfig(const DriftConfig& config) {
  drift_registry_->Configure(config);
}

void WrapperRepository::SwapSnapshotLocked(
    std::shared_ptr<Snapshot> next, uint64_t fingerprint,
    std::shared_ptr<const Snapshot>* old) {
  RepoMetrics& metrics = RepoMetrics::Get();
  next->version = snapshot_->version + 1;
  next->Index();
  metrics.wrappers->Set(static_cast<int64_t>(next->TotalWrapperCount()));
  metrics.version->Set(static_cast<int64_t>(next->version));
  metrics.pack_sites->Set(static_cast<int64_t>(next->pack->site_count()));
  *old = std::move(snapshot_);
  snapshot_ = std::move(next);
  // The publish: from here every Pin() sees the new snapshot. Readers
  // mid-request keep the old one alive through their epoch pin.
  current_.store(snapshot_.get(), std::memory_order_seq_cst);
  loaded_fingerprint_ = fingerprint;
}

void WrapperRepository::RetireSnapshot(
    std::shared_ptr<const Snapshot> old) const {
  // Retire the replaced snapshot: stamped with the pre-advance epoch, it
  // is freed (the shared_ptr released) once every reader pinned before
  // the publish has unpinned — the per-shard quiescence point. The free
  // runs from whichever thread's ReclaimRetired() observes quiescence.
  // This is also what retires a *pack generation*: the snapshot's shared
  // pack handle drops here, unmapping the old file (or freeing the old
  // in-memory pack) once no reader can still reference it.
  RepoMetrics& metrics = RepoMetrics::Get();
  metrics.snapshots_retired->Add(1);
  auto retired_at = std::chrono::steady_clock::now();
  epochs_.Retire([old = std::move(old), retired_at]() mutable {
    RepoMetrics& m = RepoMetrics::Get();
    m.reload_quiesce_micros->Record(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - retired_at)
            .count());
    old.reset();
    m.snapshots_freed->Add(1);
  });
  // Usually the old snapshot is already quiescent (requests are micro-
  // seconds, reloads are seconds apart) — try once, non-blocking; if a
  // reader is still pinned the next ReclaimRetired() picks it up.
  epochs_.TryReclaim();
}

Status WrapperRepository::PublishWrapper(const std::string& site,
                                         const std::string& attribute,
                                         const core::WrapperPtr& wrapper) {
  if (wrapper == nullptr) {
    return Status::InvalidArgument("PublishWrapper: null wrapper");
  }
  NTW_ASSIGN_OR_RETURN(std::string record, core::SerializeWrapper(*wrapper));
  bool persisted = false;
  uint64_t fingerprint = 0;
  if (!root_.empty()) {
    // Persist before publishing: a repair must survive a restart, and the
    // write-temp + rename keeps a concurrent Load() (or a crash) from ever
    // seeing a torn wrapper file. The temp name does not end in the
    // wrapper suffix, so the tree walk skips it until the rename. Next to
    // a pack file this writes the *overlay* file that shadows the pack.
    fs::path path = core::WrapperFilePath(root_, site, attribute);
    NTW_RETURN_IF_ERROR(MakeDirs(path.parent_path().string()));
    std::string temp =
        (path.parent_path() / ("." + path.filename().string() + ".tmp"))
            .string();
    NTW_RETURN_IF_ERROR(WriteFile(temp, record + "\n"));
    std::error_code ec;
    fs::rename(temp, path, ec);
    if (ec) {
      return Status::Internal("PublishWrapper: rename " + temp + ": " +
                              ec.message());
    }
    // Recorded so the poll loop does not immediately re-Load what we just
    // wrote. A racing external publish can make this momentarily stale; the
    // next PollForChanges() then simply triggers a converging reload.
    fingerprint = DiskFingerprint();
    persisted = true;
  }

  std::shared_ptr<const Snapshot> old;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Pack-only mode persisted nothing: keep the incumbent fingerprint
    // (read under mu_ — a concurrent Load() writes it there too).
    if (!persisted) fingerprint = loaded_fingerprint_;
    // The new snapshot shares the pack and starts with a cold slot
    // table: entries and fused extractors rebuild against the bumped
    // version, so stale response prefixes never leak across the publish.
    auto next = NewSnapshot();
    next->errors = snapshot_->errors;
    next->pack = snapshot_->pack;
    next->overlay_ = snapshot_->overlay_;
    next->overlay_[site][attribute] = std::move(record);
    // Force a re-baseline: drop the drifted detector so the slot build
    // creates a fresh one for the repaired wrapper (its healthy signal
    // profile is different).
    drift_registry_->Drop(site, attribute);
    SwapSnapshotLocked(std::move(next), fingerprint, &old);
  }
  RepoMetrics::Get().publishes->Add(1);
  RetireSnapshot(std::move(old));
  return Status::OK();
}

std::shared_ptr<const WrapperRepository::Snapshot> WrapperRepository::snapshot()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_;
}

void WrapperRepository::ReclaimRetired() const {
  if (!epochs_.has_retired()) return;
  epochs_.TryReclaim();
}

bool WrapperRepository::PollForChanges() const {
  uint64_t fingerprint = DiskFingerprint();
  std::lock_guard<std::mutex> lock(mu_);
  return fingerprint != loaded_fingerprint_;
}

void WrapperRepository::EnsureLedgerLoadedLocked() const {
  if (ledger_loaded_) return;
  ledger_loaded_ = true;
  if (root_.empty()) return;  // Pack-only: the ledger lives in memory.
  Result<std::string> body = ReadFile(root_ + "/.repairs.tsv");
  if (!body.ok()) return;  // No ledger yet — a fresh repository.
  for (const std::string& line : Split(*body, '\n')) {
    std::vector<std::string> fields = Split(line, '\t');
    if (fields.size() != 7) continue;  // Torn tail line: skip, keep rest.
    RepairRecord record;
    record.sequence = std::strtoll(fields[0].c_str(), nullptr, 10);
    record.site = fields[1];
    record.attribute = fields[2];
    record.incumbent_score = std::strtod(fields[3].c_str(), nullptr);
    record.repair_score = std::strtod(fields[4].c_str(), nullptr);
    record.labels = std::strtoll(fields[5].c_str(), nullptr, 10);
    record.published_version =
        std::strtoull(fields[6].c_str(), nullptr, 10);
    if (record.sequence > ledger_sequence_) {
      ledger_sequence_ = record.sequence;
    }
    ledger_.push_back(std::move(record));
    if (ledger_.size() > kLedgerCapacity) {
      ledger_.erase(ledger_.begin());
    }
  }
}

void WrapperRepository::RecordRepair(RepairRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  EnsureLedgerLoadedLocked();
  record.sequence = ++ledger_sequence_;
  record.published_version = snapshot_->version;
  // Durable first (append-only; a torn tail line is skipped on reload),
  // then the in-memory tail /driftz serves from.
  if (!root_.empty()) {
    std::string line = StrFormat(
        "%lld\t%s\t%s\t%.17g\t%.17g\t%lld\t%llu\n",
        static_cast<long long>(record.sequence), record.site.c_str(),
        record.attribute.c_str(), record.incumbent_score, record.repair_score,
        static_cast<long long>(record.labels),
        static_cast<unsigned long long>(record.published_version));
    std::FILE* file = std::fopen((root_ + "/.repairs.tsv").c_str(), "ab");
    if (file != nullptr) {
      std::fwrite(line.data(), 1, line.size(), file);
      std::fclose(file);
    }
  }
  ledger_.push_back(std::move(record));
  if (ledger_.size() > kLedgerCapacity) {
    ledger_.erase(ledger_.begin());
  }
}

std::vector<WrapperRepository::RepairRecord> WrapperRepository::repair_ledger()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  EnsureLedgerLoadedLocked();
  return ledger_;
}

}  // namespace ntw::serve
