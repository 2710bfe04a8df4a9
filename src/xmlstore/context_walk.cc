#include "xmlstore/context_walk.h"

namespace netmark::xmlstore {

using storage::RowId;

namespace {

// Bounded to the store's node count in principle; a generous hop cap guards
// the walks against link corruption.
constexpr int kMaxHops = 1 << 20;

netmark::Status LinkCycle() {
  return netmark::Status::Corruption("context walk did not terminate (link cycle?)");
}

netmark::Result<NodeHeader> ReadContext(const XmlStore& store, RowId context) {
  NETMARK_ASSIGN_OR_RETURN(NodeHeader head, store.GetNodeHeader(context));
  if (!head.is_context()) {
    return netmark::Status::InvalidArgument("a section needs a CONTEXT node");
  }
  return head;
}

// The content run after a heading whose row is in hand.
netmark::Result<std::vector<RowId>> ContentRun(const XmlStore& store,
                                               const NodeHeader& head) {
  std::vector<RowId> out;
  RowId cur = head.sibling_rowid;
  for (int hops = 0; cur.valid() && hops < kMaxHops; ++hops) {
    NETMARK_ASSIGN_OR_RETURN(NodeHeader rec, store.GetNodeHeader(cur));
    if (rec.is_context()) break;  // next section begins
    out.push_back(cur);
    cur = rec.sibling_rowid;
  }
  return out;
}

}  // namespace

netmark::Result<GoverningContext> FindGoverningContext(const XmlStore& store,
                                                       RowId start,
                                                       const NodeHeader& start_row) {
  RowId cur = start;
  NodeHeader rec = start_row;
  for (int hops = 0; hops < kMaxHops; ++hops) {
    // Includes the case where the hit IS a heading.
    if (rec.is_context()) return GoverningContext{cur, rec};
    if (rec.prev_rowid.valid()) {
      cur = rec.prev_rowid;
    } else if (rec.parent_rowid.valid()) {
      cur = rec.parent_rowid;
    } else {
      return GoverningContext{};  // ran off the top: no governing context
    }
    NETMARK_ASSIGN_OR_RETURN(rec, store.GetNodeHeader(cur));
  }
  return LinkCycle();
}

netmark::Result<GoverningContext> FindGoverningContextViaIndex(
    const XmlStore& store, RowId start, const NodeHeader& start_row) {
  // Identical traversal, but each "previous sibling" / "parent" hop is
  // resolved by logical ids through secondary indexes: fetch all siblings of
  // the current node, pick the one with the largest NODEID below ours. This
  // is what a store without physical links must do.
  RowId cur = start;
  NodeHeader rec = start_row;
  for (int hops = 0; hops < kMaxHops; ++hops) {
    if (rec.is_context()) return GoverningContext{cur, rec};
    // Find the previous sibling via an index join on the parent's children.
    RowId prev = storage::kInvalidRowId;
    if (rec.parent_node_id != 0) {
      NETMARK_ASSIGN_OR_RETURN(std::vector<StoredNode> siblings,
                               store.Children(rec.parent_node_id));
      for (const auto& [sid, s] : siblings) {
        if (s.node_id >= rec.node_id) break;  // document order
        prev = sid;
      }
    }
    if (prev.valid()) {
      cur = prev;
    } else if (rec.parent_node_id != 0) {
      // Parent hop resolved logically through the (DOC_ID, NODEID) index.
      NETMARK_ASSIGN_OR_RETURN(cur,
                               store.NodeByDocAndId(rec.doc_id, rec.parent_node_id));
    } else {
      return GoverningContext{};
    }
    NETMARK_ASSIGN_OR_RETURN(rec, store.GetNodeHeader(cur));
  }
  return LinkCycle();
}

netmark::Result<RowId> FindGoverningContext(const XmlStore& store, RowId start) {
  NETMARK_ASSIGN_OR_RETURN(NodeHeader rec, store.GetNodeHeader(start));
  NETMARK_ASSIGN_OR_RETURN(GoverningContext ctx, FindGoverningContext(store, start, rec));
  return ctx.id;
}

netmark::Result<RowId> FindGoverningContextViaIndex(const XmlStore& store,
                                                    RowId start) {
  NETMARK_ASSIGN_OR_RETURN(NodeHeader rec, store.GetNodeHeader(start));
  NETMARK_ASSIGN_OR_RETURN(GoverningContext ctx,
                           FindGoverningContextViaIndex(store, start, rec));
  return ctx.id;
}

netmark::Result<std::vector<RowId>> SectionContent(const XmlStore& store,
                                                   RowId context) {
  NETMARK_ASSIGN_OR_RETURN(NodeHeader head, ReadContext(store, context));
  return ContentRun(store, head);
}

netmark::Result<Section> BuildSection(const XmlStore& store, RowId context) {
  NETMARK_ASSIGN_OR_RETURN(NodeHeader head, ReadContext(store, context));
  Section section;
  section.context = context;
  section.doc_id = head.doc_id;
  NETMARK_ASSIGN_OR_RETURN(section.heading, store.DescendantText(head.node_id));
  NETMARK_ASSIGN_OR_RETURN(section.content, ContentRun(store, head));
  return section;
}

netmark::Result<std::string> SectionText(const XmlStore& store, RowId context) {
  NETMARK_ASSIGN_OR_RETURN(NodeHeader head, ReadContext(store, context));
  return SectionText(store, head);
}

netmark::Result<std::string> SectionText(const XmlStore& store, const NodeHeader& head) {
  std::string out;
  RowId cur = head.sibling_rowid;
  for (int hops = 0; cur.valid() && hops < kMaxHops; ++hops) {
    NETMARK_ASSIGN_OR_RETURN(NodeRecord rec, store.GetNode(cur));
    if (rec.is_context()) break;  // next section begins
    NETMARK_ASSIGN_OR_RETURN(std::string text, store.SubtreeText(rec));
    if (!text.empty()) {
      if (!out.empty()) out += ' ';
      out += text;
    }
    cur = rec.sibling_rowid;
  }
  return out;
}

}  // namespace netmark::xmlstore
