#include "hfast/topo/mesh.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace hfast::topo {

MeshTorus::MeshTorus(std::vector<int> dims, bool wraparound)
    : dims_(std::move(dims)), wrap_(wraparound) {
  HFAST_EXPECTS_MSG(!dims_.empty(), "at least one dimension required");
  n_ = 1;
  for (int d : dims_) {
    HFAST_EXPECTS_MSG(d >= 1, "dimension extents must be positive");
    n_ *= d;
  }
}

std::string MeshTorus::name() const {
  std::ostringstream os;
  os << (wrap_ ? "torus" : "mesh");
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    os << (i == 0 ? '(' : 'x') << dims_[i];
  }
  os << ')';
  return os.str();
}

std::vector<int> MeshTorus::coords(Node u) const {
  check_node(u);
  std::vector<int> c(dims_.size());
  for (std::size_t d = dims_.size(); d-- > 0;) {
    c[d] = u % dims_[d];
    u /= dims_[d];
  }
  return c;
}

Node MeshTorus::node_at(const std::vector<int>& coords) const {
  HFAST_EXPECTS(coords.size() == dims_.size());
  Node u = 0;
  for (std::size_t d = 0; d < dims_.size(); ++d) {
    HFAST_EXPECTS(coords[d] >= 0 && coords[d] < dims_[d]);
    u = u * dims_[d] + coords[d];
  }
  return u;
}

std::vector<Node> MeshTorus::neighbors(Node u) const {
  const auto c = coords(u);
  std::vector<Node> out;
  out.reserve(dims_.size() * 2);
  for (std::size_t d = 0; d < dims_.size(); ++d) {
    if (dims_[d] == 1) continue;
    for (int step : {-1, +1}) {
      auto nc = c;
      nc[d] += step;
      if (nc[d] < 0 || nc[d] >= dims_[d]) {
        if (!wrap_ || dims_[d] == 2) continue;  // avoid duplicate wrap link
        nc[d] = (nc[d] + dims_[d]) % dims_[d];
      }
      out.push_back(node_at(nc));
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

int MeshTorus::distance(Node u, Node v) const {
  check_node(u);
  check_node(v);
  int dist = 0;
  for (std::size_t d = dims_.size(); d-- > 0;) {  // last dimension fastest
    const int k = dims_[d];
    int delta = std::abs(u % k - v % k);
    if (wrap_) delta = std::min(delta, k - delta);
    dist += delta;
    u /= k;
    v /= k;
  }
  return dist;
}

std::vector<Node> MeshTorus::route(Node u, Node v) const {
  check_node(u);
  check_node(v);
  std::vector<Node> path{u};
  int stride = n_;
  for (const int k : dims_) {
    stride /= k;  // a step in this dimension: the product of later extents
    const int from = u / stride % k;
    const int to = v / stride % k;
    // The direction is fixed per dimension: shorter way round on a torus.
    const int fwd = (to - from + k) % k;
    const int step = wrap_ ? (fwd <= k - fwd ? +1 : -1) : (to > from ? +1 : -1);
    for (int c = from; c != to;) {
      const int next = (c + step + k) % k;
      u += (next - c) * stride;
      c = next;
      path.push_back(u);
    }
  }
  return path;
}

std::vector<int> MeshTorus::balanced_dims(int p, int ndims) {
  HFAST_EXPECTS(p >= 1 && ndims >= 1);
  // Greedy: repeatedly peel the factor closest to the ideal d-th root.
  std::vector<int> dims;
  int rest = p;
  for (int d = ndims; d >= 1; --d) {
    if (d == 1) {
      dims.push_back(rest);
      break;
    }
    const double ideal = std::pow(static_cast<double>(rest), 1.0 / d);
    int best = 1;
    for (int f = 1; f <= rest; ++f) {
      if (rest % f != 0) continue;
      if (std::abs(f - ideal) < std::abs(best - ideal)) best = f;
    }
    dims.push_back(best);
    rest /= best;
  }
  std::sort(dims.begin(), dims.end(), std::greater<>());
  return dims;
}

}  // namespace hfast::topo
