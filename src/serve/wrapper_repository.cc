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
  /// Directory reload entries reused because their file's (mtime, size)
  /// was unchanged — the incremental-reload win.
  obs::Counter* reload_entries_reused;
  /// Pack entries lazily finalized into a snapshot's compiled-plan cache.
  obs::Counter* pack_materializations;
  obs::Gauge* wrappers;
  obs::Gauge* version;
  /// Sites in the mapped pack generation (0 for the directory backend).
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
        obs::Registry::Global().GetCounter("ntw.repo.reload_entries_reused"),
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

constexpr char kSuffix[] = ".wrapper";

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

std::string StripRecord(std::string_view record) {
  while (!record.empty() &&
         (record.back() == '\n' || record.back() == '\r')) {
    record.remove_suffix(1);
  }
  return std::string(record);
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

bool DriftRegistry::enabled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return enabled_;
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

const WrapperRepository::Entry* WrapperRepository::Snapshot::Find(
    const std::string& site, const std::string& attribute) const {
  auto it = wrappers.find({site, attribute});
  if (it != wrappers.end()) return &it->second;
  if (pack == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(cache_mu_);
  return MaterializeLocked(site, attribute);
}

const WrapperRepository::Entry* WrapperRepository::Snapshot::MaterializeLocked(
    const std::string& site, const std::string& attribute) const {
  auto key = std::make_pair(site, attribute);
  auto cached = cache_.find(key);
  if (cached != cache_.end()) return cached->second.get();
  auto pack_entry = pack->FindEntry(site, attribute);
  if (!pack_entry.has_value()) return nullptr;  // True miss: not cached.

  auto entry = std::make_unique<Entry>();
  entry->record = StripRecord(pack_entry->record());
  Result<core::WrapperPtr> wrapper = core::DeserializeWrapper(entry->record);
  if (!wrapper.ok()) return nullptr;  // Corrupt record: behave as a miss.
  entry->wrapper = std::move(*wrapper);
  // Finalize the compiled plan from the pack's fixed layout; a plan blob
  // that fails to decode falls back to compiling the parsed record.
  entry->compiled = pack_entry->CompilePlan();
  if (entry->compiled == nullptr) {
    entry->compiled = core::CompiledWrapper::Compile(*entry->wrapper);
  }
  entry->response_prefix =
      BuildResponsePrefix(site, attribute, entry->record, version);
  if (drift_registry_ != nullptr) {
    entry->drift = drift_registry_->GetOrCreate(site, attribute, entry->record);
  }
  RepoMetrics::Get().pack_materializations->Add(1);
  const Entry* out = entry.get();
  cache_.emplace(std::move(key), std::move(entry));
  return out;
}

std::shared_ptr<const core::FusedSiteExtractor>
WrapperRepository::Snapshot::FindFused(const std::string& site) const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto hit = fused_cache_.find(site);
  if (hit != fused_cache_.end()) return hit->second;
  // One build over the site's live entries: directory, pack and overlay
  // alike, with overlay publishes already shadowing their pack entries.
  std::vector<std::pair<std::string, const Entry*>> entries =
      MaterializeSiteLocked(site);
  if (entries.empty()) return nullptr;  // Unknown site: not cached.
  std::vector<
      std::pair<std::string, std::shared_ptr<const core::CompiledWrapper>>>
      plans;
  plans.reserve(entries.size());
  for (auto& [attribute, entry] : entries) {
    plans.emplace_back(std::move(attribute), entry->compiled);
  }
  // Cache even a null result (site exists, nothing dom_free): the
  // lookup answer is stable for the snapshot's lifetime.
  std::shared_ptr<const core::FusedSiteExtractor> fused =
      core::FusedSiteExtractor::Build(std::move(plans));
  fused_cache_[site] = fused;
  return fused;
}

std::vector<std::pair<std::string, const WrapperRepository::Entry*>>
WrapperRepository::Snapshot::MaterializeSite(const std::string& site) const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return MaterializeSiteLocked(site);
}

std::vector<std::pair<std::string, const WrapperRepository::Entry*>>
WrapperRepository::Snapshot::MaterializeSiteLocked(
    const std::string& site) const {
  std::vector<std::pair<std::string, const Entry*>> overlay;
  for (auto it = wrappers.lower_bound({site, std::string()});
       it != wrappers.end() && it->first.first == site; ++it) {
    overlay.emplace_back(it->first.second, &it->second);
  }
  if (pack == nullptr) return overlay;
  auto pack_site = pack->FindSite(site);
  if (!pack_site.has_value()) return overlay;

  std::vector<std::pair<std::string, const Entry*>> merged;
  size_t oi = 0;
  for (size_t i = 0; i < pack_site->entry_count(); ++i) {
    auto pack_entry = pack_site->entry(i);
    if (!pack_entry.has_value()) continue;
    std::string attribute(pack_entry->attribute());
    // Merge with the (also ascending) overlay; overlay shadows equal names.
    while (oi < overlay.size() && overlay[oi].first < attribute) {
      merged.push_back(overlay[oi++]);
    }
    if (oi < overlay.size() && overlay[oi].first == attribute) {
      merged.push_back(overlay[oi++]);
      continue;
    }
    const Entry* entry = MaterializeLocked(site, attribute);
    if (entry != nullptr) merged.emplace_back(std::move(attribute), entry);
  }
  while (oi < overlay.size()) merged.push_back(overlay[oi++]);
  return merged;
}

std::vector<std::pair<std::pair<std::string, std::string>,
                      const WrapperRepository::Entry*>>
WrapperRepository::Snapshot::CachedEntries() const {
  std::vector<std::pair<std::pair<std::string, std::string>, const Entry*>>
      out;
  std::lock_guard<std::mutex> lock(cache_mu_);
  out.reserve(cache_.size());
  for (const auto& [key, entry] : cache_) {
    out.emplace_back(key, entry.get());
  }
  return out;
}

size_t WrapperRepository::Snapshot::TotalWrapperCount() const {
  size_t count = wrappers.size();
  if (pack != nullptr) {
    count += static_cast<size_t>(pack->header().entry_count);
  }
  return count;
}

WrapperRepository::WrapperRepository(Options options)
    : root_(std::move(options.root)),
      pack_path_(std::move(options.pack_path)),
      drift_registry_(std::make_shared<DriftRegistry>()) {
  snapshot_ = NewSnapshot();
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
  if (!pack_path_.empty()) {
    auto [mtime, size] = StatFile(pack_path_);
    HashBytes(pack_path_, &hash);
    HashInt(mtime, &hash);
    HashInt(size, &hash);
  }
  if (root_.empty()) return hash;
  Result<std::vector<std::string>> sites = ListSubdirectories(root_);
  if (!sites.ok()) return hash;
  for (const std::string& site_dir : *sites) {
    Result<std::vector<std::string>> files = ListFiles(site_dir, kSuffix);
    if (!files.ok()) continue;
    for (const std::string& file : *files) {
      auto [mtime, size] = StatFile(file);
      HashBytes(file, &hash);
      HashInt(mtime, &hash);
      HashInt(size, &hash);
    }
  }
  return hash;
}

Status WrapperRepository::Load() {
  uint64_t fingerprint = DiskFingerprint();
  auto next = NewSnapshot();

  // Pack backend: map (or re-use) the pack generation. Failures warn and
  // fall back to the directory backend — a bad pack must not take down a
  // daemon that still has its overlay directory.
  std::shared_ptr<const Snapshot> prev;
  std::pair<uint64_t, uint64_t> prev_pack_meta;
  std::map<std::string, std::pair<uint64_t, uint64_t>> prev_file_meta;
  {
    std::lock_guard<std::mutex> lock(mu_);
    prev = snapshot_;
    prev_pack_meta = pack_meta_;
    prev_file_meta = std::move(file_meta_);
    file_meta_.clear();
  }
  std::pair<uint64_t, uint64_t> new_pack_meta{0, 0};
  if (!pack_path_.empty()) {
    new_pack_meta = StatFile(pack_path_);
    if (prev->pack != nullptr && new_pack_meta == prev_pack_meta &&
        new_pack_meta != std::make_pair<uint64_t, uint64_t>(0, 0)) {
      next->pack = prev->pack;  // Unchanged file: keep the warm mapping.
    } else {
      auto pack = core::WrapperPack::Open(pack_path_);
      if (pack.ok()) {
        next->pack = std::move(*pack);
      } else {
        std::fprintf(stderr,
                     "[repo] warning: %s — falling back to directory "
                     "backend\n",
                     pack.status().ToString().c_str());
        next->errors.push_back(pack_path_ + ": " + pack.status().ToString());
        new_pack_meta = {0, 0};
      }
    }
  }

  // Directory scan: the whole repository (directory backend) or the
  // overlay delta (pack backend). Incremental: a file whose (mtime,
  // size) is unchanged reuses the previous snapshot's parsed entry —
  // SIGHUP on a large repository re-parses only what changed.
  std::map<std::string, std::pair<uint64_t, uint64_t>> new_file_meta;
  size_t reused = 0;
  if (!root_.empty()) {
    Result<std::vector<std::string>> site_dirs = ListSubdirectories(root_);
    if (!site_dirs.ok()) {
      if (next->pack == nullptr) return site_dirs.status();
      // Pack-only serving with a missing overlay directory is fine.
    } else {
      for (const std::string& site_dir : *site_dirs) {
        std::string site = fs::path(site_dir).filename().string();
        Result<std::vector<std::string>> files = ListFiles(site_dir, kSuffix);
        if (!files.ok()) {
          next->errors.push_back(site_dir + ": " + files.status().ToString());
          continue;
        }
        for (const std::string& file : *files) {
          std::string attribute = fs::path(file).filename().string();
          attribute.resize(attribute.size() - (sizeof(kSuffix) - 1));
          auto meta = StatFile(file);
          new_file_meta[file] = meta;
          auto prev_meta = prev_file_meta.find(file);
          if (prev_meta != prev_file_meta.end() &&
              prev_meta->second == meta && meta.second != 0) {
            auto prev_entry = prev->wrappers.find({site, attribute});
            if (prev_entry != prev->wrappers.end()) {
              // Unchanged on disk: reuse the parsed wrapper and compiled
              // plan (shared, immutable). The response prefix and drift
              // state are (re)attached at swap time as always.
              Entry entry;
              entry.wrapper = prev_entry->second.wrapper;
              entry.record = prev_entry->second.record;
              entry.compiled = prev_entry->second.compiled;
              next->wrappers[{site, attribute}] = std::move(entry);
              ++reused;
              continue;
            }
          }
          Result<std::string> record = ReadFile(file);
          if (!record.ok()) {
            next->errors.push_back(file + ": " + record.status().ToString());
            continue;
          }
          Result<core::WrapperPtr> wrapper = core::DeserializeWrapper(*record);
          if (!wrapper.ok()) {
            next->errors.push_back(file + ": " + wrapper.status().ToString());
            continue;
          }
          Entry entry;
          entry.wrapper = std::move(*wrapper);
          entry.record = StripRecord(*record);
          // Compile once per load; every request then executes the plan.
          entry.compiled = core::CompiledWrapper::Compile(*entry.wrapper);
          next->wrappers[{site, attribute}] = std::move(entry);
        }
      }
    }
  } else if (next->pack == nullptr) {
    // No directory and no (working) pack: nothing to serve from.
    if (!next->errors.empty()) {
      return Status::FailedPrecondition(next->errors.back());
    }
    return Status::InvalidArgument("repository has neither root nor pack");
  }

  RepoMetrics& metrics = RepoMetrics::Get();
  metrics.reloads->Add(1);
  metrics.reload_entries_reused->Add(static_cast<int64_t>(reused));
  metrics.load_errors->Add(static_cast<int64_t>(next->errors.size()));
  std::shared_ptr<const Snapshot> old;
  {
    std::lock_guard<std::mutex> lock(mu_);
    file_meta_ = std::move(new_file_meta);
    pack_meta_ = new_pack_meta;
    SwapSnapshotLocked(std::move(next), fingerprint, &old);
  }
  RetireSnapshot(std::move(old));
  return Status::OK();
}

void WrapperRepository::SetDriftConfig(const DriftConfig& config) {
  drift_registry_->Configure(config);
}

void WrapperRepository::AttachDriftStates(Snapshot* next) {
  if (!drift_registry_->enabled()) return;
  for (auto& [key, entry] : next->wrappers) {
    entry.drift =
        drift_registry_->GetOrCreate(key.first, key.second, entry.record);
  }
  if (next->pack == nullptr) {
    // Prune detectors whose (site, attribute) vanished from disk. With a
    // pack the registry holds only pairs that served traffic, and the
    // overlay map is not the full universe — never prune there.
    const auto& live = next->wrappers;
    drift_registry_->PruneIf(
        [&live](const std::pair<std::string, std::string>& key) {
          return live.find(key) == live.end();
        });
  }
}

void WrapperRepository::SwapSnapshotLocked(
    std::shared_ptr<Snapshot> next, uint64_t fingerprint,
    std::shared_ptr<const Snapshot>* old) {
  RepoMetrics& metrics = RepoMetrics::Get();
  next->version = snapshot_->version + 1;
  AttachDriftStates(next.get());
  // The version is now known, so the constant response members can be
  // serialized per entry.
  for (auto& [key, entry] : next->wrappers) {
    entry.response_prefix =
        BuildResponsePrefix(key.first, key.second, entry.record, next->version);
  }
  metrics.wrappers->Set(static_cast<int64_t>(next->TotalWrapperCount()));
  metrics.version->Set(static_cast<int64_t>(next->version));
  metrics.pack_sites->Set(
      next->pack == nullptr
          ? 0
          : static_cast<int64_t>(next->pack->header().site_count));
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
  // With a pack backend this is also what retires a *pack generation*:
  // the snapshot's shared mapping handle drops here, unmapping the old
  // file once no reader can still reference it.
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
    // seeing a torn wrapper file. The dot prefix keeps the temp name out of
    // the ListFiles(".wrapper") scan until the rename. With a pack backend
    // this writes the *overlay* file that shadows the mapped entry.
    std::string dir = root_ + "/" + site;
    NTW_RETURN_IF_ERROR(MakeDirs(dir));
    std::string path = dir + "/" + attribute + kSuffix;
    std::string temp = dir + "/." + attribute + kSuffix + ".tmp";
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

  Entry entry;
  entry.wrapper = wrapper;
  entry.record = record;
  entry.compiled = core::CompiledWrapper::Compile(*wrapper);

  std::shared_ptr<const Snapshot> old;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Pack-only mode persisted nothing: keep the incumbent fingerprint
    // (read under mu_ — a concurrent Load() writes it there too).
    if (!persisted) fingerprint = loaded_fingerprint_;
    // Snapshots are non-copyable (they own lazy caches); clone the
    // immutable parts and start with cold caches — entries and fused
    // extractors re-materialize against the bumped version, so stale
    // response prefixes can never leak across the publish.
    auto next = NewSnapshot();
    next->wrappers = snapshot_->wrappers;
    next->errors = snapshot_->errors;
    next->pack = snapshot_->pack;
    next->wrappers[{site, attribute}] = std::move(entry);
    // Force a re-baseline: drop the drifted detector so AttachDriftStates
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
