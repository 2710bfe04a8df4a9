// LocalStoreSource: full-capability source backed by an in-process XmlStore.
// It composes its answer through a query::ReadPath and reads the `<results>`
// document back with HitsFromResults, the same function RemoteSource reads
// a response with, so an in-process store and a remote one give identical
// hits.

#ifndef NETMARK_FEDERATION_LOCAL_SOURCE_H_
#define NETMARK_FEDERATION_LOCAL_SOURCE_H_

#include <memory>
#include <string>

#include "federation/source.h"
#include "query/read_path.h"
#include "xmlstore/xml_store.h"

namespace netmark::federation {

/// \brief Adapter exposing a NETMARK XML Store as a federated source.
class LocalStoreSource : public Source {
 public:
  /// Wraps a store owned elsewhere (must outlive the source); runs uncached.
  LocalStoreSource(std::string name, const xmlstore::XmlStore* store);
  /// Serves through a read path owned elsewhere (must outlive the source),
  /// sharing its caches — how the facade registers its own store.
  LocalStoreSource(std::string name, const query::ReadPath* read_path)
      : name_(std::move(name)), read_path_(read_path) {}

  /// Opens the store at `dir` and owns it for the source's lifetime (the
  /// form declarative databank configs use); runs uncached.
  static netmark::Result<std::shared_ptr<LocalStoreSource>> OpenOwned(
      std::string name, const std::string& dir);

  const std::string& name() const override { return name_; }
  Capabilities capabilities() const override { return Capabilities::Full(); }

  using Source::Execute;
  netmark::Result<std::vector<FederatedHit>> Execute(
      const query::XdbQuery& query, const CallContext& ctx) override;

 private:
  std::string name_;
  std::unique_ptr<xmlstore::XmlStore> owned_store_;  // set by OpenOwned
  std::unique_ptr<query::ReadPath> owned_path_;      // null when borrowed
  const query::ReadPath* read_path_;
};

}  // namespace netmark::federation

#endif  // NETMARK_FEDERATION_LOCAL_SOURCE_H_
