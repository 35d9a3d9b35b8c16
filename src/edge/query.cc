#include "src/edge/query.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace pathdump {

namespace {

// Framing constants (bytes).
constexpr size_t kMsgHeader = 16;
constexpr size_t kPerBin = 12;        // 8B bin id (varint-ish) + 4B count
constexpr size_t kPerFlowId = 13;     // packed 5-tuple
constexpr size_t kPerTopKItem = 21;   // bytes + 5-tuple
constexpr size_t kPerPathSwitch = 4;  // switch ID

size_t PathBytes(const Path& p) { return 1 + p.size() * kPerPathSwitch; }

struct SizeVisitor {
  size_t operator()(const std::monostate&) const { return kMsgHeader; }
  size_t operator()(const FlowSizeHistogram& h) const {
    return kMsgHeader + 8 + h.bins.size() * kPerBin;
  }
  size_t operator()(const TopKFlows& t) const { return kMsgHeader + t.items.size() * kPerTopKItem; }
  size_t operator()(const FlowList& f) const {
    size_t s = kMsgHeader;
    for (const Flow& fl : f.flows) {
      s += kPerFlowId + PathBytes(fl.path);
    }
    return s;
  }
  size_t operator()(const PathList& p) const {
    size_t s = kMsgHeader;
    for (const Path& path : p.paths) {
      s += PathBytes(path);
    }
    return s;
  }
  size_t operator()(const CountSummary&) const { return kMsgHeader + 16; }
};

}  // namespace

void TopKFlows::Finalize() {
  // Total order (bytes desc, then flow id) so ties at the k-boundary
  // truncate identically regardless of merge topology or sort stability.
  // Because the order is total, partitioning at k and sorting only the
  // first k gives exactly the full sort's first k.
  const auto before = [](const auto& a, const auto& b) {
    if (a.first != b.first) {
      return b.first < a.first;
    }
    return a.second < b.second;
  };
  if (k > 0 && items.size() > k) {
    const auto kth = items.begin() + std::ptrdiff_t(k);
    std::nth_element(items.begin(), kth, items.end(), before);
    items.resize(k);
  }
  std::sort(items.begin(), items.end(), before);
}

size_t SerializedBytes(const QueryResult& r) { return std::visit(SizeVisitor{}, r); }

void MergeQueryResult(QueryResult& acc, QueryResult in) {
  // An empty contribution (e.g. an aggregation-tree node whose host is
  // not registered) merges as the identity instead of throwing
  // bad_variant_access below.
  if (std::holds_alternative<std::monostate>(in)) {
    return;
  }
  if (std::holds_alternative<std::monostate>(acc)) {
    acc = std::move(in);
    if (auto* t = std::get_if<TopKFlows>(&acc)) {
      t->Finalize();
    }
    return;
  }
  if (auto* h = std::get_if<FlowSizeHistogram>(&acc)) {
    for (const auto& [bin, count] : std::get<FlowSizeHistogram>(in).bins) {
      h->bins[bin] += count;
    }
    return;
  }
  if (auto* t = std::get_if<TopKFlows>(&acc)) {
    auto& ti = std::get<TopKFlows>(in).items;
    t->items.insert(t->items.end(), ti.begin(), ti.end());
    t->Finalize();
    return;
  }
  if (auto* f = std::get_if<FlowList>(&acc)) {
    auto& fi = std::get<FlowList>(in).flows;
    f->flows.insert(f->flows.end(), std::make_move_iterator(fi.begin()),
                    std::make_move_iterator(fi.end()));
    return;
  }
  if (auto* p = std::get_if<PathList>(&acc)) {
    auto& pi = std::get<PathList>(in).paths;
    p->paths.insert(p->paths.end(), std::make_move_iterator(pi.begin()),
                    std::make_move_iterator(pi.end()));
    return;
  }
  if (auto* c = std::get_if<CountSummary>(&acc)) {
    const auto& ci = std::get<CountSummary>(in);
    c->bytes += ci.bytes;
    c->pkts += ci.pkts;
    return;
  }
}

}  // namespace pathdump
