#include "hfast/trace/trace.hpp"

#include <algorithm>
#include <charconv>
#include <istream>
#include <limits>
#include <numeric>
#include <ostream>
#include <sstream>
#include <string_view>
#include <system_error>

#include "hfast/util/assert.hpp"

namespace hfast::trace {

// --- EventColumns -----------------------------------------------------------

void EventColumns::reserve(std::size_t n) {
  rank.reserve(n);
  op_index.reserve(n);
  kind.reserve(n);
  call.reserve(n);
  peer.reserve(n);
  bytes.reserve(n);
  region.reserve(n);
}

void EventColumns::clear() {
  rank.clear();
  op_index.clear();
  kind.clear();
  call.clear();
  peer.clear();
  bytes.clear();
  region.clear();
}

void EventColumns::push_back(const CommEvent& e) {
  rank.push_back(e.rank);
  op_index.push_back(e.op_index);
  kind.push_back(e.kind);
  call.push_back(e.call);
  peer.push_back(e.peer);
  bytes.push_back(e.bytes);
  region.push_back(e.region);
}

void EventColumns::push_row(const EventColumns& src, std::size_t i) {
  rank.push_back(src.rank[i]);
  op_index.push_back(src.op_index[i]);
  kind.push_back(src.kind[i]);
  call.push_back(src.call[i]);
  peer.push_back(src.peer[i]);
  bytes.push_back(src.bytes[i]);
  region.push_back(src.region[i]);
}

CommEvent EventColumns::get(std::size_t i) const {
  return {rank[i], op_index[i], kind[i],  call[i],
          peer[i], bytes[i],    region[i]};
}

// --- TraceRecorder ----------------------------------------------------------

void TraceRecorder::on_call(CallType call, Rank peer, std::uint64_t bytes,
                            double seconds) {
  (void)peer;
  (void)seconds;
  if (!mpisim::is_collective(call)) return;  // PTP captured via on_message
  events_.push_back({rank_, next_op_++, EventKind::kCollective, call,
                     mpisim::kNoPeer, bytes, current_region()});
}

void TraceRecorder::on_message(Rank peer_world, std::uint64_t bytes,
                               bool is_send) {
  events_.push_back({rank_, next_op_++,
                     is_send ? EventKind::kSend : EventKind::kRecv,
                     is_send ? CallType::kSend : CallType::kRecv, peer_world,
                     bytes, current_region()});
}

void TraceRecorder::on_region(std::string_view name, bool enter) {
  if (enter) {
    for (std::size_t i = 0; i < region_names_.size(); ++i) {
      if (region_names_[i] == name) {
        stack_.push_back(static_cast<std::uint16_t>(i));
        return;
      }
    }
    region_names_.emplace_back(name);
    stack_.push_back(static_cast<std::uint16_t>(region_names_.size() - 1));
  } else {
    HFAST_EXPECTS_MSG(!stack_.empty(), "region_end without begin");
    stack_.pop_back();
  }
}

// --- Trace ------------------------------------------------------------------

namespace {

/// Gather-apply a sort permutation to one column.
template <typename T>
void apply_perm(std::vector<T>& col, const std::vector<std::size_t>& perm) {
  std::vector<T> out;
  out.reserve(col.size());
  for (std::size_t i : perm) out.push_back(col[i]);
  col.swap(out);
}

}  // namespace

void Trace::build_index() {
  const std::size_t n = cols_.size();
  if (cols_.op_index.size() != n || cols_.kind.size() != n ||
      cols_.call.size() != n || cols_.peer.size() != n ||
      cols_.bytes.size() != n || cols_.region.size() != n) {
    throw Error("trace: event column lengths disagree");
  }

  const auto less = [this](std::size_t a, std::size_t b) {
    if (cols_.rank[a] != cols_.rank[b]) return cols_.rank[a] < cols_.rank[b];
    return cols_.op_index[a] < cols_.op_index[b];
  };
  // Merged and loaded traces arrive rank-major already; only pay the
  // permutation sort when something actually reordered them.
  bool sorted = true;
  for (std::size_t i = 1; i < n; ++i) {
    if (less(i, i - 1)) {
      sorted = false;
      break;
    }
  }
  if (!sorted) {
    std::vector<std::size_t> perm(n);
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    std::stable_sort(perm.begin(), perm.end(), less);
    apply_perm(cols_.rank, perm);
    apply_perm(cols_.op_index, perm);
    apply_perm(cols_.kind, perm);
    apply_perm(cols_.call, perm);
    apply_perm(cols_.peer, perm);
    apply_perm(cols_.bytes, perm);
    apply_perm(cols_.region, perm);
  }

  // rank_offsets_[r] = first index with rank >= r. Events with ranks
  // outside [0, nranks) — a malformed trace the replay validators will
  // reject — sort to the edges and simply fall outside every rank's span.
  rank_offsets_.assign(static_cast<std::size_t>(nranks_) + 1, 0);
  std::size_t idx = 0;
  for (int r = 0; r <= nranks_; ++r) {
    while (idx < n && cols_.rank[idx] < r) ++idx;
    rank_offsets_[static_cast<std::size_t>(r)] = idx;
  }
}

Trace::Trace(int nranks, EventColumns cols,
             std::vector<std::string> region_names)
    : nranks_(nranks),
      cols_(std::move(cols)),
      region_names_(std::move(region_names)) {
  build_index();
}

Trace::Trace(int nranks, std::vector<CommEvent> events,
             std::vector<std::string> region_names)
    : nranks_(nranks), region_names_(std::move(region_names)) {
  cols_.reserve(events.size());
  for (const CommEvent& e : events) cols_.push_back(e);
  build_index();
}

Trace Trace::merge(std::span<const TraceRecorder* const> recorders) {
  std::vector<std::string> names{""};
  auto intern = [&names](const std::string& n) -> std::uint16_t {
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (names[i] == n) return static_cast<std::uint16_t>(i);
    }
    names.push_back(n);
    return static_cast<std::uint16_t>(names.size() - 1);
  };

  EventColumns all;
  std::size_t total = 0;
  for (const auto* r : recorders) total += r->columns().size();
  all.reserve(total);
  for (const auto* r : recorders) {
    HFAST_EXPECTS(r != nullptr);
    // Remap this recorder's region ids into the merged table.
    std::vector<std::uint16_t> remap(r->region_names().size());
    for (std::size_t i = 0; i < r->region_names().size(); ++i) {
      remap[i] = intern(r->region_names()[i]);
    }
    const EventColumns& c = r->columns();
    all.rank.insert(all.rank.end(), c.rank.begin(), c.rank.end());
    all.op_index.insert(all.op_index.end(), c.op_index.begin(),
                        c.op_index.end());
    all.kind.insert(all.kind.end(), c.kind.begin(), c.kind.end());
    all.call.insert(all.call.end(), c.call.begin(), c.call.end());
    all.peer.insert(all.peer.end(), c.peer.begin(), c.peer.end());
    all.bytes.insert(all.bytes.end(), c.bytes.begin(), c.bytes.end());
    for (std::uint16_t reg : c.region) all.region.push_back(remap[reg]);
  }
  return Trace(static_cast<int>(recorders.size()), std::move(all),
               std::move(names));
}

EventSpan Trace::rank_events(Rank r) const noexcept {
  if (r < 0 || r >= nranks_) return {};
  return {&cols_, rank_offsets_[static_cast<std::size_t>(r)],
          rank_offsets_[static_cast<std::size_t>(r) + 1]};
}

Trace Trace::filter_region(std::string_view region) const {
  if (region.empty()) return *this;
  std::uint16_t want = 0;
  bool found = false;
  for (std::size_t i = 0; i < region_names_.size(); ++i) {
    if (region_names_[i] == region) {
      want = static_cast<std::uint16_t>(i);
      found = true;
      break;
    }
  }
  EventColumns kept;
  if (found) {
    for (std::size_t i = 0; i < cols_.size(); ++i) {
      if (cols_.region[i] == want) kept.push_row(cols_, i);
    }
  }
  return Trace(nranks_, std::move(kept), region_names_);
}

Trace Trace::point_to_point_only() const {
  EventColumns kept;
  for (std::size_t i = 0; i < cols_.size(); ++i) {
    if (cols_.kind[i] != EventKind::kCollective) kept.push_row(cols_, i);
  }
  return Trace(nranks_, std::move(kept), region_names_);
}

std::uint64_t Trace::total_ptp_bytes() const {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < cols_.size(); ++i) {
    if (cols_.kind[i] == EventKind::kSend) sum += cols_.bytes[i];
  }
  return sum;
}

void Trace::save_text(std::ostream& os) const {
  os << "hfast-trace v1 nranks=" << nranks_
     << " events=" << cols_.size() << " regions=" << region_names_.size()
     << '\n';
  for (std::size_t i = 0; i < region_names_.size(); ++i) {
    os << "region " << i << ' '
       << (region_names_[i].empty() ? "<global>" : region_names_[i]) << '\n';
  }
  for (std::size_t i = 0; i < cols_.size(); ++i) {
    os << cols_.rank[i] << ' ' << cols_.op_index[i] << ' '
       << static_cast<int>(cols_.kind[i]) << ' '
       << static_cast<int>(cols_.call[i]) << ' ' << cols_.peer[i] << ' '
       << cols_.bytes[i] << ' ' << cols_.region[i] << '\n';
  }
}

Trace Trace::load_text(std::istream& is) {
  // Trace files are data, frequently hand-edited; every parse or range
  // failure is reported with the 1-based line it came from so the edit is
  // findable, and nothing from the file is trusted as an array index or an
  // allocation size before it is range-checked.
  std::size_t line_no = 1;
  const auto fail = [&line_no](const std::string& what) {
    throw Error("trace: line " + std::to_string(line_no) + ": " + what);
  };

  std::string line;
  std::getline(is, line);
  int nranks = 0;
  std::size_t nevents = 0, nregions = 0;
  {
    std::istringstream hs(line);
    std::string magic, version, kv;
    hs >> magic >> version;
    if (magic != "hfast-trace" || version != "v1") {
      fail("bad header: " + line);
    }
    // Strict: the whole value is a decimal integer in [0, max].
    const auto field = [&](std::string_view key, std::string_view val,
                           long long max) {
      long long v = 0;
      const auto [end, ec] =
          std::from_chars(val.data(), val.data() + val.size(), v);
      if (ec != std::errc{} || end != val.data() + val.size()) {
        fail("unparseable header field: " + kv);
      }
      if (v < 0) fail("negative " + std::string(key));
      if (v > max) {
        fail("header field " + kv + " exceeds " + std::to_string(max));
      }
      return v;
    };
    while (hs >> kv) {
      const auto eq = kv.find('=');
      if (eq == std::string::npos) continue;
      const std::string_view key = std::string_view(kv).substr(0, eq);
      const std::string_view val = std::string_view(kv).substr(eq + 1);
      if (key == "nranks") {
        nranks = static_cast<int>(
            field(key, val, std::numeric_limits<Rank>::max()));
      }
      if (key == "events") {
        nevents = static_cast<std::size_t>(
            field(key, val, std::numeric_limits<long long>::max()));
      }
      if (key == "regions") {
        // Events index regions with a std::uint16_t.
        nregions = static_cast<std::size_t>(
            field(key, val, std::numeric_limits<std::uint16_t>::max() + 1));
      }
    }
  }

  // Grown as region lines arrive, so a header that overstates the table
  // fails on the missing line instead of allocating for it first.
  std::vector<std::string> names;
  for (std::size_t i = 0; i < nregions; ++i) {
    ++line_no;
    if (!std::getline(is, line)) fail("truncated region table");
    std::istringstream ls(line);
    std::string word, name;
    std::size_t idx = 0;
    if (!(ls >> word >> idx >> name) || word != "region" || idx >= nregions) {
      fail("bad region line: " + line);
    }
    if (idx >= names.size()) names.resize(idx + 1);
    names[idx] = (name == "<global>") ? "" : name;
  }
  names.resize(nregions);

  EventColumns events;
  // The header's event count steers the loop, not the allocation: cap the
  // speculative reserve so an absurd count cannot OOM before the stream
  // runs dry and reports the real (truncated) length.
  events.reserve(std::min(nevents, std::size_t{1} << 20));
  for (std::size_t i = 0; i < nevents; ++i) {
    ++line_no;
    if (!std::getline(is, line)) fail("truncated event stream");
    std::istringstream ls(line);
    long long rank = 0, peer = 0, op_index = 0, bytes = 0, region = 0;
    int kind = 0, call = 0;
    if (!(ls >> rank >> op_index >> kind >> call >> peer >> bytes >> region)) {
      fail("unparseable event: " + line);
    }
    if (rank < 0 || rank >= nranks) {
      fail("event rank " + std::to_string(rank) + " outside [0, " +
           std::to_string(nranks) + ")");
    }
    if (op_index < 0) fail("negative op index");
    if (kind < 0 || kind > static_cast<int>(EventKind::kCollective)) {
      fail("bad event kind " + std::to_string(kind));
    }
    if (call < 0 || call >= mpisim::kNumCallTypes) {
      fail("bad call type " + std::to_string(call));
    }
    if (static_cast<EventKind>(kind) == EventKind::kCollective) {
      // Collectives are peerless; accepting a garbage peer here would let
      // it masquerade as a valid event until replay (or a lowering pass)
      // trips over it far from the offending line.
      if (peer != mpisim::kNoPeer) {
        fail("collective event with peer " + std::to_string(peer) +
             " (expected " + std::to_string(mpisim::kNoPeer) + ")");
      }
    } else if (peer < 0 || peer >= nranks) {
      fail("point-to-point peer " + std::to_string(peer) + " outside [0, " +
           std::to_string(nranks) + ")");
    }
    if (bytes < 0) fail("negative byte count");
    if (region < 0 ||
        region >= static_cast<long long>(std::max<std::size_t>(nregions, 1))) {
      fail("region index " + std::to_string(region) + " outside the " +
           std::to_string(nregions) + "-entry region table");
    }
    events.push_back({static_cast<Rank>(rank),
                      static_cast<std::uint64_t>(op_index),
                      static_cast<EventKind>(kind), static_cast<CallType>(call),
                      static_cast<Rank>(peer),
                      static_cast<std::uint64_t>(bytes),
                      static_cast<std::uint16_t>(region)});
  }
  return Trace(nranks, std::move(events), std::move(names));
}

}  // namespace hfast::trace
