#include "hfast/store/codec.hpp"

#include <bit>
#include <utility>

#include "hfast/store/fields.hpp"
#include "hfast/util/assert.hpp"
#include "hfast/util/hash.hpp"

namespace hfast::store {

// --- Encoder ---------------------------------------------------------------

void Encoder::u16(std::uint16_t v) {
  u8(static_cast<std::uint8_t>(v));
  u8(static_cast<std::uint8_t>(v >> 8));
}

void Encoder::u32(std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    u8(static_cast<std::uint8_t>(v >> shift));
  }
}

void Encoder::u64(std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    u8(static_cast<std::uint8_t>(v >> shift));
  }
}

void Encoder::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void Encoder::str(std::string_view v) {
  HFAST_EXPECTS_MSG(v.size() <= UINT32_MAX, "string too long to encode");
  u32(static_cast<std::uint32_t>(v.size()));
  for (char c : v) buf_.push_back(static_cast<std::byte>(c));
}

// --- Decoder ---------------------------------------------------------------

std::span<const std::byte> Decoder::take(std::size_t n) {
  if (n > remaining()) {
    throw Error("store codec: truncated payload (wanted " + std::to_string(n) +
                " bytes, " + std::to_string(remaining()) + " remain)");
  }
  auto out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

std::uint8_t Decoder::u8() { return static_cast<std::uint8_t>(take(1)[0]); }

std::uint16_t Decoder::u16() {
  const auto b = take(2);
  return static_cast<std::uint16_t>(static_cast<std::uint16_t>(b[0]) |
                                    static_cast<std::uint16_t>(b[1]) << 8);
}

std::uint32_t Decoder::u32() {
  const auto b = take(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(b[static_cast<std::size_t>(i)]) << (8 * i);
  }
  return v;
}

std::uint64_t Decoder::u64() {
  const auto b = take(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(b[static_cast<std::size_t>(i)]) << (8 * i);
  }
  return v;
}

double Decoder::f64() { return std::bit_cast<double>(u64()); }

bool Decoder::boolean() {
  const std::uint8_t v = u8();
  if (v > 1) throw Error("store codec: malformed boolean");
  return v == 1;
}

std::string Decoder::str() {
  const std::uint32_t len = u32();
  const auto b = take(len);
  std::string out(len, '\0');
  for (std::size_t i = 0; i < b.size(); ++i) {
    out[i] = static_cast<char>(b[i]);
  }
  return out;
}

void Decoder::expect_backing(std::uint64_t count,
                             std::size_t min_bytes_each) const {
  if (count > remaining() / (min_bytes_each == 0 ? 1 : min_bytes_each)) {
    throw Error("store codec: count field exceeds remaining payload");
  }
}

// --- config ----------------------------------------------------------------

namespace {

struct EncodeField {
  Encoder& enc;
  void operator()(const char*, const std::string& v) { enc.str(v); }
  void operator()(const char*, const int& v) { enc.i64(v); }
  void operator()(const char*, const bool& v) { enc.boolean(v); }
  void operator()(const char*, const double& v) { enc.f64(v); }
  void operator()(const char*, const std::uint64_t& v) { enc.u64(v); }
  void operator()(const char*, const mpisim::EngineKind& v) {
    enc.u8(static_cast<std::uint8_t>(v));
  }
  void operator()(const char*, const core::SmpPacking& v) {
    enc.u8(static_cast<std::uint8_t>(v));
  }
  void operator()(const char*, const collective::ScheduleKind& v) {
    enc.u8(static_cast<std::uint8_t>(v));
  }
};

struct DecodeField {
  Decoder& dec;
  void operator()(const char*, std::string& v) { v = dec.str(); }
  void operator()(const char*, int& v) {
    v = static_cast<int>(dec.i64());
  }
  void operator()(const char*, bool& v) { v = dec.boolean(); }
  void operator()(const char*, double& v) { v = dec.f64(); }
  void operator()(const char*, std::uint64_t& v) { v = dec.u64(); }
  void operator()(const char*, mpisim::EngineKind& v) {
    const std::uint8_t raw = dec.u8();
    if (raw > static_cast<std::uint8_t>(mpisim::EngineKind::kFibers)) {
      throw Error("store codec: unknown engine kind " + std::to_string(raw));
    }
    v = static_cast<mpisim::EngineKind>(raw);
  }
  void operator()(const char*, core::SmpPacking& v) {
    const std::uint8_t raw = dec.u8();
    if (raw > static_cast<std::uint8_t>(core::SmpPacking::kAffinity)) {
      throw Error("store codec: unknown SMP packing " + std::to_string(raw));
    }
    v = static_cast<core::SmpPacking>(raw);
  }
  void operator()(const char*, collective::ScheduleKind& v) {
    const std::uint8_t raw = dec.u8();
    if (raw > static_cast<std::uint8_t>(collective::ScheduleKind::kSynth)) {
      throw Error("store codec: unknown collective schedule " +
                  std::to_string(raw));
    }
    v = static_cast<collective::ScheduleKind>(raw);
  }
};

void encode_histogram(Encoder& enc, const util::LogHistogram& h) {
  enc.u32(static_cast<std::uint32_t>(h.raw().size()));
  for (const auto& [size, count] : h.raw()) {
    enc.u64(size);
    enc.u64(count);
  }
}

util::LogHistogram decode_histogram(Decoder& dec) {
  const std::uint32_t n = dec.u32();
  dec.expect_backing(n, 16);
  util::LogHistogram h;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint64_t size = dec.u64();
    const std::uint64_t count = dec.u64();
    h.add(size, count);
  }
  return h;
}

void encode_profile(Encoder& enc, const ipm::WorkloadProfile& profile) {
  const auto snap = profile.snapshot();
  enc.i32(snap.nranks);
  enc.u64(snap.total_calls);
  enc.u64(snap.dropped);
  enc.u32(static_cast<std::uint32_t>(snap.counts.size()));
  for (std::uint64_t c : snap.counts) enc.u64(c);
  for (double t : snap.times) enc.f64(t);
  encode_histogram(enc, snap.ptp_buffers);
  encode_histogram(enc, snap.collective_buffers);
  for (const auto& per_rank : snap.sent) {
    enc.u32(static_cast<std::uint32_t>(per_rank.size()));
    for (const auto& [peer_bytes, count] : per_rank) {
      enc.i32(peer_bytes.first);
      enc.u64(peer_bytes.second);
      enc.u64(count);
    }
  }
}

ipm::WorkloadProfile decode_profile(Decoder& dec) {
  ipm::WorkloadProfile::Snapshot snap;
  snap.nranks = dec.i32();
  snap.total_calls = dec.u64();
  snap.dropped = dec.u64();
  const std::uint32_t ntypes = dec.u32();
  if (ntypes != static_cast<std::uint32_t>(mpisim::kNumCallTypes)) {
    throw Error("store codec: call taxonomy size mismatch (payload has " +
                std::to_string(ntypes) + ", library has " +
                std::to_string(mpisim::kNumCallTypes) + ")");
  }
  dec.expect_backing(ntypes, 16);  // one u64 count + one f64 time each
  snap.counts.resize(ntypes);
  for (auto& c : snap.counts) c = dec.u64();
  snap.times.resize(ntypes);
  for (auto& t : snap.times) t = dec.f64();
  snap.ptp_buffers = decode_histogram(dec);
  snap.collective_buffers = decode_histogram(dec);
  if (snap.nranks < 0) throw Error("store codec: negative rank count");
  dec.expect_backing(static_cast<std::uint64_t>(snap.nranks), 4);
  snap.sent.resize(static_cast<std::size_t>(snap.nranks));
  for (auto& per_rank : snap.sent) {
    const std::uint32_t n = dec.u32();
    dec.expect_backing(n, 20);
    for (std::uint32_t i = 0; i < n; ++i) {
      const mpisim::Rank peer = dec.i32();
      const std::uint64_t bytes = dec.u64();
      per_rank[{peer, bytes}] = dec.u64();
    }
  }
  return ipm::WorkloadProfile::from_snapshot(std::move(snap));
}

void encode_graph(Encoder& enc, const graph::CommGraph& g) {
  enc.i32(g.num_nodes());
  enc.u64(g.num_edges());
  for (const auto& [uv, stats] : g.edges()) {
    enc.i32(uv.first);
    enc.i32(uv.second);
    enc.u64(stats.messages);
    enc.u64(stats.bytes);
    enc.u64(stats.max_message);
  }
}

graph::CommGraph decode_graph(Decoder& dec) {
  const int n = dec.i32();
  if (n < 0) throw Error("store codec: negative graph size");
  const std::uint64_t nedges = dec.u64();
  dec.expect_backing(nedges, 32);
  graph::CommGraph g(n);
  for (std::uint64_t e = 0; e < nedges; ++e) {
    const graph::Node u = dec.i32();
    const graph::Node v = dec.i32();
    graph::EdgeStats stats;
    stats.messages = dec.u64();
    stats.bytes = dec.u64();
    stats.max_message = dec.u64();
    if (u < 0 || u >= n || v < 0 || v >= n || u == v) {
      throw Error("store codec: graph edge endpoints out of range");
    }
    g.add_edge_stats(u, v, stats);
  }
  return g;
}

void encode_trace(Encoder& enc, const trace::Trace& t) {
  enc.i32(t.nranks());
  enc.u32(static_cast<std::uint32_t>(t.region_names().size()));
  for (const auto& name : t.region_names()) enc.str(name);
  enc.u64(t.events().size());
  for (const trace::CommEvent& ev : t.events()) {
    enc.i32(ev.rank);
    enc.u64(ev.op_index);
    enc.u8(static_cast<std::uint8_t>(ev.kind));
    enc.u8(static_cast<std::uint8_t>(ev.call));
    enc.i32(ev.peer);
    enc.u64(ev.bytes);
    enc.u16(ev.region);
  }
}

trace::Trace decode_trace(Decoder& dec) {
  const int nranks = dec.i32();
  if (nranks < 0) throw Error("store codec: negative trace rank count");
  const std::uint32_t nregions = dec.u32();
  dec.expect_backing(nregions, 4);
  std::vector<std::string> regions;
  regions.reserve(nregions);
  for (std::uint32_t i = 0; i < nregions; ++i) regions.push_back(dec.str());
  if (regions.empty()) {
    throw Error("store codec: trace missing the implicit global region");
  }
  const std::uint64_t nevents = dec.u64();
  dec.expect_backing(nevents, 28);
  std::vector<trace::CommEvent> events;
  events.reserve(nevents);
  for (std::uint64_t i = 0; i < nevents; ++i) {
    trace::CommEvent ev;
    ev.rank = dec.i32();
    ev.op_index = dec.u64();
    const std::uint8_t kind = dec.u8();
    if (kind > static_cast<std::uint8_t>(trace::EventKind::kCollective)) {
      throw Error("store codec: unknown trace event kind");
    }
    ev.kind = static_cast<trace::EventKind>(kind);
    const std::uint8_t call = dec.u8();
    if (call >= static_cast<std::uint8_t>(mpisim::CallType::kCount)) {
      throw Error("store codec: unknown call type in trace");
    }
    ev.call = static_cast<mpisim::CallType>(call);
    ev.peer = dec.i32();
    ev.bytes = dec.u64();
    ev.region = dec.u16();
    if (ev.region >= regions.size()) {
      throw Error("store codec: trace event region out of range");
    }
    events.push_back(ev);
  }
  return trace::Trace(nranks, std::move(events), std::move(regions));
}

void encode_provision_stats(Encoder& enc, const core::ProvisionStats& s) {
  enc.i32(s.num_blocks);
  enc.i32(s.num_trunks);
  enc.i32(s.edges_provisioned);
  enc.i32(s.internal_edges);
  enc.f64(s.avg_circuit_traversals);
  enc.i32(s.max_circuit_traversals);
  enc.f64(s.avg_switch_hops);
  enc.i32(s.max_switch_hops);
}

core::ProvisionStats decode_provision_stats(Decoder& dec) {
  core::ProvisionStats s;
  s.num_blocks = dec.i32();
  s.num_trunks = dec.i32();
  s.edges_provisioned = dec.i32();
  s.internal_edges = dec.i32();
  s.avg_circuit_traversals = dec.f64();
  s.max_circuit_traversals = dec.i32();
  s.avg_switch_hops = dec.f64();
  s.max_switch_hops = dec.i32();
  return s;
}

void encode_smp(Encoder& enc, const analysis::SmpArtifacts& smp) {
  enc.i32(smp.num_nodes);
  enc.u64(smp.backplane_bytes);
  enc.i32(smp.node_tdc_max);
  enc.f64(smp.node_tdc_avg);
  enc.i32(smp.block_size);
  enc.u32(static_cast<std::uint32_t>(smp.node_of_task.size()));
  for (int node : smp.node_of_task) enc.i32(node);
  encode_graph(enc, smp.node_graph);
  encode_provision_stats(enc, smp.provision);
}

analysis::SmpArtifacts decode_smp(Decoder& dec) {
  analysis::SmpArtifacts smp;
  smp.num_nodes = dec.i32();
  if (smp.num_nodes < 0) throw Error("store codec: negative SMP node count");
  smp.backplane_bytes = dec.u64();
  smp.node_tdc_max = dec.i32();
  smp.node_tdc_avg = dec.f64();
  smp.block_size = dec.i32();
  const std::uint32_t ntasks = dec.u32();
  dec.expect_backing(ntasks, 4);
  smp.node_of_task.reserve(ntasks);
  for (std::uint32_t i = 0; i < ntasks; ++i) {
    const int node = dec.i32();
    if (node < 0 || node >= smp.num_nodes) {
      throw Error("store codec: SMP task mapped outside its node range");
    }
    smp.node_of_task.push_back(node);
  }
  smp.node_graph = decode_graph(dec);
  smp.provision = decode_provision_stats(dec);
  return smp;
}

}  // namespace

void encode_config(Encoder& enc, const analysis::ExperimentConfig& config) {
  EncodeField visit{enc};
  visit_config_fields(config, visit);
}

analysis::ExperimentConfig decode_config(Decoder& dec) {
  analysis::ExperimentConfig config;
  DecodeField visit{dec};
  visit_config_fields(config, visit);
  // Field-level decoding accepts any bit pattern for ints and doubles;
  // range rules live here, per config, like the enum checks above.
  if (config.reconfig.num_windows < 0) {
    throw Error("store codec: negative reconfiguration window count");
  }
  if (config.reconfig.hysteresis_windows < 0) {
    throw Error("store codec: negative reconfiguration hysteresis");
  }
  if (!(config.reconfig.reconfig_seconds >= 0.0)) {
    throw Error("store codec: reconfiguration cost must be >= 0 seconds");
  }
  return config;
}

void encode_result(Encoder& enc, const analysis::ExperimentResult& result) {
  encode_config(enc, result.config);
  enc.f64(result.wall_seconds);
  encode_profile(enc, result.steady);
  encode_profile(enc, result.all_regions);
  encode_graph(enc, result.comm_graph);
  encode_graph(enc, result.comm_graph_all);
  encode_trace(enc, result.trace);
  encode_smp(enc, result.smp);
}

analysis::ExperimentResult decode_result(Decoder& dec) {
  analysis::ExperimentResult result;
  result.config = decode_config(dec);
  result.wall_seconds = dec.f64();
  result.steady = decode_profile(dec);
  result.all_regions = decode_profile(dec);
  result.comm_graph = decode_graph(dec);
  result.comm_graph_all = decode_graph(dec);
  result.trace = decode_trace(dec);
  result.smp = decode_smp(dec);
  if (!dec.done()) {
    throw Error("store codec: trailing bytes after result payload");
  }
  return result;
}

std::uint64_t config_key(const analysis::ExperimentConfig& config) {
  Encoder enc;
  enc.u32(kFormatVersion);
  encode_config(enc, config);
  return util::fnv1a64(enc.bytes());
}

}  // namespace hfast::store
