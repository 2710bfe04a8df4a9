// RemoteSource: a source reached over HTTP — another NETMARK server's XDB
// endpoint ("users can access NETMARK documents by simple HTTP requests").
//
// The transport is abstract so federation does not depend on the server
// module; netmark::server provides the socket-backed implementation.

#ifndef NETMARK_FEDERATION_REMOTE_SOURCE_H_
#define NETMARK_FEDERATION_REMOTE_SOURCE_H_

#include <memory>
#include <string>
#include <vector>

#include "federation/source.h"
#include "observability/trace.h"
#include "xml/dom.h"

namespace netmark::federation {

/// \brief Minimal HTTP GET transport.
class HttpTransport {
 public:
  virtual ~HttpTransport() = default;
  /// Fetches `path_and_query` ("/xdb?context=..."), returning the body.
  /// Implementations must give up with Status::DeadlineExceeded once
  /// `ctx.deadline_micros` passes instead of blocking indefinitely.
  virtual netmark::Result<std::string> Get(const std::string& path_and_query,
                                           const CallContext& ctx) = 0;

  /// Convenience: fetch with no deadline.
  netmark::Result<std::string> Get(const std::string& path_and_query) {
    return Get(path_and_query, CallContext::Unbounded());
  }
};

/// \brief Federated source proxied over HTTP to a remote NETMARK instance.
class RemoteSource : public Source {
 public:
  RemoteSource(std::string name, std::unique_ptr<HttpTransport> transport,
               Capabilities capabilities = Capabilities::Full())
      : name_(std::move(name)),
        transport_(std::move(transport)),
        capabilities_(capabilities) {}

  const std::string& name() const override { return name_; }
  Capabilities capabilities() const override { return capabilities_; }
  using Source::Execute;
  netmark::Result<std::vector<FederatedHit>> Execute(
      const query::XdbQuery& query, const CallContext& ctx) override;

 private:
  std::string name_;
  std::unique_ptr<HttpTransport> transport_;
  Capabilities capabilities_;
};

/// \brief Reads a `<results>` document (the XDB endpoint's response format;
/// see query::ComposeResults) as federated hits: `<context>` is the heading,
/// `<content>` the text and markup, and a document-level hit's `<snippet>`
/// its text. When `remote_spans` is non-null and the document carries a `<trace>`
/// block (the remote saw our traceparent header), the remote's span subtree
/// is decoded into it — ids/parents are indices into the output vector,
/// timestamps are synthetic (duration-only; remote clocks don't align) —
/// ready for Trace::Graft under the local `source:*` span.
netmark::Result<std::vector<FederatedHit>> HitsFromResults(
    const xml::Document& doc,
    std::vector<observability::SpanData>* remote_spans = nullptr);

/// \brief Parses a response body and reads it with HitsFromResults.
netmark::Result<std::vector<FederatedHit>> ParseResultsDocument(
    std::string_view body,
    std::vector<observability::SpanData>* remote_spans = nullptr);

}  // namespace netmark::federation

#endif  // NETMARK_FEDERATION_REMOTE_SOURCE_H_
