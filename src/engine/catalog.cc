#include "engine/catalog.h"

#include <algorithm>
#include <cctype>
#include <mutex>
#include <utility>
#include <vector>

namespace sgb::engine {

namespace {

std::string Lower(const std::string& s) {
  std::string out = s;
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

}  // namespace

/// Each pin invokes the provider (outside the catalog lock: providers
/// re-enter the catalog) and reads the snapshot it returns.
class Catalog::VirtualTable final : public TableSource {
 public:
  VirtualTable(Schema schema, TableProviderFn provider, const Rep& rep)
      : schema_(std::move(schema)), provider_(std::move(provider)), rep_(rep) {}

  const Schema& schema() const override { return schema_; }
  TableKind kind() const override { return TableKind::kSystem; }
  size_t bytes() const override { return 0; }
  Result<TableCursorPtr> Pin() const override {
    auto snapshot = std::make_shared<Table>(schema_);
    SGB_RETURN_IF_ERROR(provider_(*rep_.owner, snapshot.get()));
    const size_t rows = snapshot->NumRows();
    return MakeIndexedCursor(
        rows, [table = std::move(snapshot)](size_t i) -> const Row& {
          return table->rows()[i];
        });
  }

 private:
  Schema schema_;
  TableProviderFn provider_;
  const Rep& rep_;
};

Status Catalog::Register(const std::string& name, TablePtr table) {
  {
    std::unique_lock<std::shared_mutex> lock(rep_->mu);
    const std::string key = Lower(name);
    const auto it = rep_->entries.find(key);
    if (it != rep_->entries.end() &&
        (it->second->kind() == TableKind::kSystem ||
         it->second->kind() == TableKind::kPaged)) {
      return Status::InvalidArgument(
          "cannot replace " + std::string(TableKindName(it->second->kind())) +
          " table '" + name + "'");
    }
    rep_->entries[key] = std::move(table);
    rep_->stats.erase(key);  // replacing a table invalidates its statistics
  }
  BumpVersion();
  return Status::OK();
}

void Catalog::RegisterProvider(const std::string& name, Schema schema,
                               TableProviderFn provider) {
  {
    std::unique_lock<std::shared_mutex> lock(rep_->mu);
    rep_->entries[Lower(name)] = std::make_shared<VirtualTable>(
        std::move(schema), std::move(provider), *rep_);
  }
  BumpVersion();
}

Status Catalog::CreateAppendable(const std::string& name, Schema schema,
                                 bool if_not_exists) const {
  {
    std::unique_lock<std::shared_mutex> lock(rep_->mu);
    const auto [it, inserted] = rep_->entries.try_emplace(Lower(name));
    if (!inserted) {
      if (if_not_exists) return Status::OK();
      return Status::InvalidArgument("table '" + name + "' already exists");
    }
    it->second = std::make_shared<AppendOnlyTable>(std::move(schema));
  }
  BumpVersion();
  return Status::OK();
}

Status Catalog::RegisterSource(
    const std::string& name, std::shared_ptr<const TableSource> source) const {
  {
    std::unique_lock<std::shared_mutex> lock(rep_->mu);
    if (!rep_->entries.try_emplace(Lower(name), std::move(source)).second) {
      return Status::InvalidArgument("table '" + name + "' already exists");
    }
  }
  BumpVersion();
  return Status::OK();
}

Status Catalog::Drop(const std::string& name, bool if_exists) const {
  const std::string key = Lower(name);
  {
    std::unique_lock<std::shared_mutex> lock(rep_->mu);
    const auto it = rep_->entries.find(key);
    if (it == rep_->entries.end()) {
      if (if_exists) return Status::OK();
      return Status::NotFound("no table named '" + name + "'");
    }
    if (it->second->kind() == TableKind::kSystem) {
      return Status::InvalidArgument("cannot drop system table '" + name +
                                     "'");
    }
    rep_->entries.erase(it);
    rep_->stats.erase(key);
  }
  BumpVersion();
  return Status::OK();
}

Result<TableSourcePtr> Catalog::Find(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(rep_->mu);
  const auto it = rep_->entries.find(Lower(name));
  if (it == rep_->entries.end()) {
    return Status::NotFound("no table named '" + name + "'");
  }
  return it->second;
}

AppendTablePtr Catalog::FindAppendable(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(rep_->mu);
  const auto it = rep_->entries.find(Lower(name));
  if (it == rep_->entries.end()) return nullptr;
  // The catalog created every append-only entry mutable (CreateAppendable).
  return std::const_pointer_cast<AppendOnlyTable>(
      std::dynamic_pointer_cast<const AppendOnlyTable>(it->second));
}

std::vector<std::string> Catalog::TableNames() const {
  std::shared_lock<std::shared_mutex> lock(rep_->mu);
  std::vector<std::string> names;
  names.reserve(rep_->entries.size());
  for (const auto& [name, entry] : rep_->entries) names.push_back(name);
  return names;
}

void Catalog::SetStats(const std::string& name, stats::TableStatsPtr s) const {
  {
    std::unique_lock<std::shared_mutex> lock(rep_->mu);
    StatsEntry& entry = rep_->stats[Lower(name)];
    entry.rows_at_bump = s ? s->row_count : 0;
    entry.stats = std::move(s);
  }
  BumpVersion();
}

stats::TableStatsPtr Catalog::GetStats(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(rep_->mu);
  const auto it = rep_->stats.find(Lower(name));
  return it == rep_->stats.end() ? nullptr : it->second.stats;
}

bool Catalog::AddStatsRowDelta(const std::string& name,
                               uint64_t delta) const {
  bool bump = false;
  {
    std::unique_lock<std::shared_mutex> lock(rep_->mu);
    const auto it = rep_->stats.find(Lower(name));
    if (it == rep_->stats.end() || it->second.stats == nullptr) return false;
    auto updated = std::make_shared<stats::TableStats>(*it->second.stats);
    updated->row_count += delta;
    const uint64_t threshold =
        std::max<uint64_t>(1, updated->analyzed_rows / 10);
    if (updated->row_count - it->second.rows_at_bump >= threshold) {
      it->second.rows_at_bump = updated->row_count;
      bump = true;
    }
    it->second.stats = std::move(updated);
  }
  if (bump) BumpVersion();
  return bump;
}

std::vector<std::string> Catalog::StatsNames() const {
  std::shared_lock<std::shared_mutex> lock(rep_->mu);
  std::vector<std::string> names;
  names.reserve(rep_->stats.size());
  for (const auto& [name, entry] : rep_->stats) names.push_back(name);
  return names;
}

}  // namespace sgb::engine
