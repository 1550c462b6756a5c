// Tracing from outside the program: pass-through wrappers around the public
// mw::Codec and mw::ClientTransport / ServerTransport interfaces that stamp
// every request/response pair in simulated time and time every codec call
// on the host clock. Spans stay in memory; write_json() dumps them at the
// end of a traced run.
//
// One rpc is four simulated stamps, keyed by (client endpoint, request id):
//   sent         client transport send            (request leaves the client)
//   node_in      server transport delivers it     (request fully arrived)
//   node_out     server transport send            (reply leaves the node)
//   received     client transport delivers reply  (reply fully arrived)
// and three spans: request_transit = node_in - sent, node_service =
// node_out - node_in, reply_transit = received - node_out.
//
// The codec names the request id: a client encodes its request right
// before the send and decodes the reply right after the delivery, and a
// node decodes right after delivery and encodes right before its send, all
// within one simulated instant.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "src/mw/codec.hpp"
#include "src/mw/transport.hpp"
#include "src/sim/simulator.hpp"

namespace pb {

struct RpcSpan {
  int endpoint = -1;
  std::uint64_t request_id = 0;
  std::int64_t sent = -1;
  std::int64_t node_in = -1;
  std::int64_t node_out = -1;
  std::int64_t received = -1;

  bool complete() const {
    return sent >= 0 && node_in >= sent && node_out >= node_in &&
           received >= node_out;
  }
};

class SpanBook {
 public:
  explicit SpanBook(tb::sim::Simulator& sim) : sim_(&sim) {}

  /// Declares that `session` on server `server` is client endpoint
  /// `endpoint`.
  void route(int server, std::uint64_t session, int endpoint) {
    routes_[key(server, session)] = endpoint;
  }

  // Client side.
  void client_encoded(int endpoint, std::uint64_t rid) { port(endpoint).rid = rid; }
  void client_sent(int endpoint);
  void client_delivered(int endpoint) { port(endpoint).in_ns = now(); }
  void client_decoded(int endpoint, std::uint64_t rid);

  // Server side.
  void server_delivered(int server, std::uint64_t session);
  void server_decoded(int server, std::uint64_t rid);
  void server_encoded(int server, std::uint64_t rid) { node(server).rid = rid; }
  void server_sent(int server, std::uint64_t session);

  /// Stamps that could not be tied to an rpc (unknown session or id).
  std::uint64_t anomalies() const { return anomalies_; }

  /// Every rpc of `endpoint`, in send order.
  const std::vector<RpcSpan>& spans(int endpoint) const;

  /// Dumps every span to .bench_build/trace_<workload>.json, beside the
  /// build that run.py keeps at the checkout root.
  void write_json(const std::string& workload) const;

 private:
  struct Port {
    std::uint64_t rid = 0;
    std::int64_t in_ns = -1;
    std::uint64_t session = 0;
  };
  static std::uint64_t key(int a, std::uint64_t b) {
    return (static_cast<std::uint64_t>(a) << 40) ^ b;
  }
  std::int64_t now() const { return sim_->now().count_ns(); }
  Port& port(int endpoint);
  Port& node(int server);
  RpcSpan* find(int endpoint, std::uint64_t rid);
  int endpoint_of(int server, std::uint64_t session);

  tb::sim::Simulator* sim_;
  std::vector<Port> ports_;
  std::vector<Port> nodes_;
  std::unordered_map<std::uint64_t, int> routes_;
  std::vector<std::vector<RpcSpan>> spans_;  ///< per endpoint, send order
  std::unordered_map<std::uint64_t, std::size_t> index_;  ///< (ep, rid) -> slot
  std::uint64_t anomalies_ = 0;
};

/// Host-clock samples of codec calls, shared by every traced codec.
struct CodecTimes {
  std::vector<double> encode_ns;
  std::vector<double> decode_ns;
};

/// A codec that forwards to `inner`, timing each call and telling the span
/// book which request id crossed. `server` >= 0 makes it a node's codec,
/// otherwise it belongs to client endpoint `endpoint`.
class TracedCodec final : public tb::mw::Codec {
 public:
  TracedCodec(const tb::mw::Codec& inner, SpanBook& book, CodecTimes& times,
              int endpoint, int server)
      : inner_(&inner), book_(&book), times_(&times), endpoint_(endpoint),
        server_(server) {}

  void encode_into(const tb::mw::Message& message,
                   std::vector<std::uint8_t>& out) const override;
  std::optional<tb::mw::Message> decode(
      std::span<const std::uint8_t> bytes) const override;
  const char* name() const override { return inner_->name(); }

 private:
  const tb::mw::Codec* inner_;
  SpanBook* book_;
  CodecTimes* times_;
  int endpoint_;
  int server_;
};

class TracedClientTransport final : public tb::mw::ClientTransport {
 public:
  TracedClientTransport(tb::mw::ClientTransport& inner, SpanBook& book,
                        int endpoint);

  using tb::mw::ClientTransport::send;
  void send(std::span<const std::uint8_t> message) override;

 private:
  tb::mw::ClientTransport* inner_;
  SpanBook* book_;
  int endpoint_;
};

class TracedServerTransport final : public tb::mw::ServerTransport {
 public:
  TracedServerTransport(tb::mw::ServerTransport& inner, SpanBook& book,
                        int server);

  using tb::mw::ServerTransport::send;
  void send(SessionId session, std::span<const std::uint8_t> message) override;

 private:
  tb::mw::ServerTransport* inner_;
  SpanBook* book_;
  int server_;
};

/// One client-visible operation as the workload timed it (simulated ns).
struct OpWindow {
  std::vector<int> endpoints;  ///< where the op's rpcs may travel
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// Critical-path spans of traced ops, in simulated ms.
struct SpanSamples {
  std::vector<double> request_transit_ms;
  std::vector<double> node_service_ms;
  std::vector<double> reply_transit_ms;
  std::uint64_t rpcs = 0;
  std::uint64_t broken_ops = 0;  ///< spans did not tile the round trip
  std::string first_break;
};

/// Attributes every rpc of each op (sent at or after its start, answered by
/// its end) and checks that the op's critical path tiles its round trip
/// exactly: the first rpc leaves at the start, each round of parallel rpcs
/// begins the instant the previous round's last reply arrives, and the last
/// reply lands at the end. On the critical rpc of each round the three
/// spans then sum exactly to the op's round trip.
SpanSamples check_spans(const SpanBook& book, const std::vector<OpWindow>& ops);

/// Fills the span.* and mw.codec host-time layer metrics.
void report_spans(Result& result, const SpanSamples& spans,
                  const CodecTimes& codec);

}  // namespace pb
