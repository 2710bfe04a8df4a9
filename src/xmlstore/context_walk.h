// Context walks (paper §2.1.4, "Processing Queries Internally").
//
// "The processing of the node involves traversing up the tree structure via
// its parent or sibling node until the first context is found. ... Once a
// particular CONTEXT is found, traversing back down the tree structure via
// the sibling node retrieves the corresponding content text."
//
// The upward walk hops previous-sibling links, falling back to the parent
// link when a node is its parent's first child, and stops at the first
// CONTEXT-typed node — the section heading governing the start node. The
// downward walk then follows forward-sibling links from the heading,
// collecting content until the next CONTEXT sibling (the next section) or
// the end of the sibling run.
//
// Every hop is one physical RowId fetch — the paper's Oracle-rowid trick.
// FindGoverningContextViaIndex is the ablation twin that does the same walk
// with logical-id index joins instead (bench_ablation_rowid). Both start
// from a row the caller already holds (the query executor's verified
// posting), so no row is read twice, and both hand back the heading row
// they stopped at.

#ifndef NETMARK_XMLSTORE_CONTEXT_WALK_H_
#define NETMARK_XMLSTORE_CONTEXT_WALK_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "xmlstore/xml_store.h"

namespace netmark::xmlstore {

/// A located section: the CONTEXT node plus its content run.
struct Section {
  storage::RowId context;                  ///< the heading node
  std::string heading;                     ///< heading text
  std::vector<storage::RowId> content;     ///< sibling nodes forming the body
  int64_t doc_id = 0;
};

/// Where an upward walk stopped: the governing CONTEXT node and its row as
/// the walk's last hop read it. `id` is invalid when the start node
/// precedes any heading.
struct GoverningContext {
  storage::RowId id;
  NodeHeader head;
};

/// \brief Nearest enclosing/preceding CONTEXT node of `start`, whose row
/// the caller has already read (`start_row`): the walk reads only the rows
/// it hops to. Pure RowId-link hops.
netmark::Result<GoverningContext> FindGoverningContext(const XmlStore& store,
                                                       storage::RowId start,
                                                       const NodeHeader& start_row);

/// \brief Same result computed with PARENTNODEID index joins instead of
/// physical links (ablation baseline; see DESIGN.md Ablation A).
netmark::Result<GoverningContext> FindGoverningContextViaIndex(
    const XmlStore& store, storage::RowId start, const NodeHeader& start_row);

/// \brief The two walks from a bare RowId: read `start`, then walk. The
/// result is the context's RowId, invalid when none governs `start`.
netmark::Result<storage::RowId> FindGoverningContext(const XmlStore& store,
                                                     storage::RowId start);
netmark::Result<storage::RowId> FindGoverningContextViaIndex(const XmlStore& store,
                                                             storage::RowId start);

/// \brief The content run of a CONTEXT node: following siblings up to (not
/// including) the next CONTEXT sibling.
netmark::Result<std::vector<storage::RowId>> SectionContent(const XmlStore& store,
                                                            storage::RowId context);

/// \brief Materializes a full Section (heading text + content + doc),
/// reading the heading row once and walking the content run once.
netmark::Result<Section> BuildSection(const XmlStore& store, storage::RowId context);

/// \brief Concatenated text of a section's content run.
netmark::Result<std::string> SectionText(const XmlStore& store,
                                         storage::RowId context);

/// \brief SectionText of a CONTEXT node whose row is in hand: one walk of
/// the content run, each content row read once.
netmark::Result<std::string> SectionText(const XmlStore& store, const NodeHeader& head);

}  // namespace netmark::xmlstore

#endif  // NETMARK_XMLSTORE_CONTEXT_WALK_H_
