#include "trace.hpp"

#include <algorithm>
#include <cstdio>

namespace pb {

SpanBook::Port& SpanBook::port(int endpoint) {
  if (static_cast<std::size_t>(endpoint) >= ports_.size()) {
    ports_.resize(static_cast<std::size_t>(endpoint) + 1);
    spans_.resize(ports_.size());
  }
  return ports_[static_cast<std::size_t>(endpoint)];
}

SpanBook::Port& SpanBook::node(int server) {
  if (static_cast<std::size_t>(server) >= nodes_.size()) {
    nodes_.resize(static_cast<std::size_t>(server) + 1);
  }
  return nodes_[static_cast<std::size_t>(server)];
}

RpcSpan* SpanBook::find(int endpoint, std::uint64_t rid) {
  const auto it = index_.find(key(endpoint, rid));
  if (it == index_.end()) return nullptr;
  return &spans_[static_cast<std::size_t>(endpoint)][it->second];
}

int SpanBook::endpoint_of(int server, std::uint64_t session) {
  const auto it = routes_.find(key(server, session));
  return it == routes_.end() ? -1 : it->second;
}

void SpanBook::client_sent(int endpoint) {
  Port& p = port(endpoint);
  std::vector<RpcSpan>& list = spans_[static_cast<std::size_t>(endpoint)];
  const auto [it, fresh] = index_.emplace(key(endpoint, p.rid), list.size());
  if (!fresh) {  // a retransmission: the rpc keeps its first send
    ++anomalies_;
    return;
  }
  RpcSpan span;
  span.endpoint = endpoint;
  span.request_id = p.rid;
  span.sent = now();
  list.push_back(span);
}

void SpanBook::client_decoded(int endpoint, std::uint64_t rid) {
  RpcSpan* span = find(endpoint, rid);
  if (span == nullptr || span->received >= 0) {
    ++anomalies_;
    return;
  }
  span->received = port(endpoint).in_ns;
}

void SpanBook::server_delivered(int server, std::uint64_t session) {
  Port& p = node(server);
  p.session = session;
  p.in_ns = now();
}

void SpanBook::server_decoded(int server, std::uint64_t rid) {
  const Port& p = node(server);
  RpcSpan* span = find(endpoint_of(server, p.session), rid);
  if (span == nullptr || span->node_in >= 0) {
    ++anomalies_;
    return;
  }
  span->node_in = p.in_ns;
}

void SpanBook::server_sent(int server, std::uint64_t session) {
  RpcSpan* span = find(endpoint_of(server, session), node(server).rid);
  if (span == nullptr || span->node_out >= 0) {
    ++anomalies_;
    return;
  }
  span->node_out = now();
}

const std::vector<RpcSpan>& SpanBook::spans(int endpoint) const {
  static const std::vector<RpcSpan> none;
  if (endpoint < 0 || static_cast<std::size_t>(endpoint) >= spans_.size()) {
    return none;
  }
  return spans_[static_cast<std::size_t>(endpoint)];
}

void SpanBook::write_json(const std::string& workload) const {
  const std::string path = ".bench_build/trace_" + workload + ".json";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  std::fprintf(out, "[\n");
  bool first = true;
  for (const auto& list : spans_) {
    for (const RpcSpan& s : list) {
      std::fprintf(out,
                   "%s{\"endpoint\":%d,\"request_id\":%llu,\"sent_ns\":%lld,"
                   "\"node_in_ns\":%lld,\"node_out_ns\":%lld,"
                   "\"received_ns\":%lld}",
                   first ? "" : ",\n", s.endpoint,
                   static_cast<unsigned long long>(s.request_id),
                   static_cast<long long>(s.sent),
                   static_cast<long long>(s.node_in),
                   static_cast<long long>(s.node_out),
                   static_cast<long long>(s.received));
      first = false;
    }
  }
  std::fprintf(out, "\n]\n");
  std::fclose(out);
}

void TracedCodec::encode_into(const tb::mw::Message& message,
                              std::vector<std::uint8_t>& out) const {
  const std::int64_t t0 = host_ns();
  inner_->encode_into(message, out);
  times_->encode_ns.push_back(static_cast<double>(host_ns() - t0));
  if (server_ >= 0) {
    book_->server_encoded(server_, message.request_id);
  } else {
    book_->client_encoded(endpoint_, message.request_id);
  }
}

std::optional<tb::mw::Message> TracedCodec::decode(
    std::span<const std::uint8_t> bytes) const {
  const std::int64_t t0 = host_ns();
  std::optional<tb::mw::Message> message = inner_->decode(bytes);
  times_->decode_ns.push_back(static_cast<double>(host_ns() - t0));
  if (message.has_value()) {
    if (server_ >= 0) {
      book_->server_decoded(server_, message->request_id);
    } else {
      book_->client_decoded(endpoint_, message->request_id);
    }
  }
  return message;
}

TracedClientTransport::TracedClientTransport(tb::mw::ClientTransport& inner,
                                             SpanBook& book, int endpoint)
    : inner_(&inner), book_(&book), endpoint_(endpoint) {
  inner.on_message().connect([this](std::span<const std::uint8_t> message) {
    book_->client_delivered(endpoint_);
    deliver(message);
  });
}

void TracedClientTransport::send(std::span<const std::uint8_t> message) {
  book_->client_sent(endpoint_);
  note_sent(message.size());
  inner_->send(message);
}

TracedServerTransport::TracedServerTransport(tb::mw::ServerTransport& inner,
                                             SpanBook& book, int server)
    : inner_(&inner), book_(&book), server_(server) {
  inner.on_message().connect(
      [this](SessionId session, std::span<const std::uint8_t> message) {
        book_->server_delivered(server_, session);
        deliver(session, message);
      });
}

void TracedServerTransport::send(SessionId session,
                                 std::span<const std::uint8_t> message) {
  book_->server_sent(server_, session);
  note_sent(message.size());
  inner_->send(session, message);
}

SpanSamples check_spans(const SpanBook& book, const std::vector<OpWindow>& ops) {
  SpanSamples out;
  auto broken = [&out](const std::string& why) {
    if (out.broken_ops++ == 0) out.first_break = why;
  };
  // Each endpoint's rpcs are in send order and its ops are sequential, so
  // one cursor per endpoint walks both lists once.
  std::unordered_map<int, std::size_t> cursor;
  std::vector<const RpcSpan*> mine;
  for (const OpWindow& op : ops) {
    mine.clear();
    for (int ep : op.endpoints) {
      const std::vector<RpcSpan>& list = book.spans(ep);
      std::size_t& at = cursor[ep];
      while (at < list.size() && list[at].sent < op.start) ++at;
      while (at < list.size() && list[at].sent <= op.end) {
        if (list[at].received > op.end || list[at].received < 0) break;
        mine.push_back(&list[at]);
        ++at;
      }
    }
    const std::string where = "op [" + std::to_string(op.start) + ", " +
                              std::to_string(op.end) + "] ns";
    if (mine.empty()) {
      broken(where + ": no rpc");
      continue;
    }
    std::sort(mine.begin(), mine.end(), [](const RpcSpan* a, const RpcSpan* b) {
      return a->sent != b->sent ? a->sent < b->sent : a->received < b->received;
    });
    std::int64_t at = op.start;
    std::int64_t total = 0;
    bool ok = true;
    std::size_t i = 0;
    while (i < mine.size() && ok) {
      if (mine[i]->sent != at) {
        broken(where + ": gap before an rpc sent at " +
               std::to_string(mine[i]->sent));
        ok = false;
        break;
      }
      const RpcSpan* critical = mine[i];
      for (; i < mine.size() && mine[i]->sent == at; ++i) {
        if (!mine[i]->complete()) {
          broken(where + ": incomplete rpc " +
                 std::to_string(mine[i]->request_id));
          ok = false;
          break;
        }
        if (mine[i]->received > critical->received) critical = mine[i];
      }
      if (!ok) break;
      const std::int64_t request = critical->node_in - critical->sent;
      const std::int64_t service = critical->node_out - critical->node_in;
      const std::int64_t reply = critical->received - critical->node_out;
      out.request_transit_ms.push_back(static_cast<double>(request) * 1e-6);
      out.node_service_ms.push_back(static_cast<double>(service) * 1e-6);
      out.reply_transit_ms.push_back(static_cast<double>(reply) * 1e-6);
      total += request + service + reply;
      at = critical->received;
    }
    out.rpcs += mine.size();
    if (ok && total != op.end - op.start) {
      broken(where + ": spans sum to " + std::to_string(total) + " ns");
    }
  }
  return out;
}

void report_spans(Result& result, const SpanSamples& spans,
                  const CodecTimes& codec) {
  auto both = [&result](const std::string& name, std::vector<double> v,
                        const std::string& unit) {
    std::sort(v.begin(), v.end());
    result.layer(name + "_p50", percentile_sorted(v, 50.0), unit);
    result.layer(name + "_p99", percentile_sorted(v, 99.0), unit);
  };
  both("span.request_transit_ms", spans.request_transit_ms, "ms");
  both("span.node_service_ms", spans.node_service_ms, "ms");
  both("span.reply_transit_ms", spans.reply_transit_ms, "ms");
  both("mw.codec.encode_host_ns", codec.encode_ns, "ns");
  both("mw.codec.decode_host_ns", codec.decode_ns, "ns");
}

}  // namespace pb
