#include "federation/local_source.h"

#include "federation/remote_source.h"

namespace netmark::federation {

LocalStoreSource::LocalStoreSource(std::string name,
                                   const xmlstore::XmlStore* store)
    : name_(std::move(name)),
      // 0 entries: a bare store keeps no caches (a store shared with a
      // service is reached through the service's read path instead).
      owned_path_(std::make_unique<query::ReadPath>(
          store, query::ResultCacheOptions{0, 0}, query::QueryPlanCache::Options{0})),
      read_path_(owned_path_.get()) {}

netmark::Result<std::shared_ptr<LocalStoreSource>> LocalStoreSource::OpenOwned(
    std::string name, const std::string& dir) {
  NETMARK_ASSIGN_OR_RETURN(std::unique_ptr<xmlstore::XmlStore> store,
                           xmlstore::XmlStore::Open(dir));
  auto source = std::make_shared<LocalStoreSource>(std::move(name), store.get());
  source->owned_store_ = std::move(store);
  return source;
}

netmark::Result<std::vector<FederatedHit>> LocalStoreSource::Execute(
    const query::XdbQuery& query, const CallContext& ctx) {
  if (ctx.expired()) {
    return netmark::Status::DeadlineExceeded("local source " + name_ +
                                             ": deadline expired");
  }
  NETMARK_ASSIGN_OR_RETURN(xml::Document results, read_path_->Compose(query));
  return HitsFromResults(results);
}

}  // namespace netmark::federation
