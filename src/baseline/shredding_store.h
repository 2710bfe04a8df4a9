// Shredding baseline: schema-per-document-type XML storage.
//
// This reproduces the approach the paper contrasts NETMARK against
// (Shanmugasundaram et al., "A General Technique for Querying XML Documents
// using a Relational Database System" [10]): XML documents are "shredded"
// into relational tables, with *different relations for different XML
// element types*. Consequences measured by bench_fig5_storage:
//
//  * the first document of each new type triggers DDL (CREATE TABLE per
//    element tag it contains);
//  * later documents of the same type that introduce new tags trigger more
//    DDL;
//  * NETMARK, by contrast, issues a constant amount of DDL for any corpus.

#ifndef NETMARK_BASELINE_SHREDDING_STORE_H_
#define NETMARK_BASELINE_SHREDDING_STORE_H_

#include <map>
#include <memory>
#include <set>
#include <string>

#include "common/result.h"
#include "storage/database.h"
#include "xml/dom.h"
#include "xmlstore/xml_store.h"

namespace netmark::baseline {

/// \brief Schema-centric document store.
class ShreddingStore {
 public:
  static netmark::Result<std::unique_ptr<ShreddingStore>> Open(const std::string& dir);

  /// Shreds a document in one committed transaction. The document's *type*
  /// is its root element name; a new type (or new tags within a known type)
  /// costs DDL.
  netmark::Result<int64_t> InsertDocument(const xml::Document& doc,
                                          const xmlstore::DocumentInfo& info);

  /// Rebuilds a document from its shredded rows.
  netmark::Result<xml::Document> Reconstruct(int64_t doc_id);

  uint64_t document_count() const;
  /// Total DDL statements issued (the schema-management cost).
  uint64_t ddl_statements() const { return db_->ddl_statements(); }
  /// Number of per-type element tables created.
  size_t table_count() const;

  storage::Database* database() { return db_.get(); }

 private:
  explicit ShreddingStore(std::unique_ptr<storage::Database> db)
      : db_(std::move(db)) {}
  netmark::Status EnsureCatalogTables();
  /// InsertDocument's body, run inside the open transaction.
  netmark::Result<int64_t> ShredDocument(const xml::Document& doc,
                                         const xmlstore::DocumentInfo& info);
  /// Ensures `type`'s table for `tag` exists (DDL when missing).
  netmark::Result<storage::Table*> EnsureTagTable(const std::string& type,
                                                  const std::string& tag);
  static std::string TableNameFor(const std::string& type, const std::string& tag);

  std::unique_ptr<storage::Database> db_;
  storage::Table* docs_table_ = nullptr;
  int64_t next_doc_id_ = 1;
  // type -> known tags (mirrors the catalog; avoids repeated lookups).
  std::map<std::string, std::set<std::string>> known_tags_;
};

/// \brief Sanitizes an element tag for use inside a table name.
std::string SanitizeTag(std::string_view tag);

}  // namespace netmark::baseline

#endif  // NETMARK_BASELINE_SHREDDING_STORE_H_
