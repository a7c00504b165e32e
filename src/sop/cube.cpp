#include "sop/cube.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace rmsyn {

Cube::Cube(int nvars)
    : nvars_(nvars), pos_(static_cast<std::size_t>(nvars)),
      neg_(static_cast<std::size_t>(nvars)) {}

void Cube::resize_vars(int nvars) {
  nvars_ = nvars;
  pos_.resize(static_cast<std::size_t>(nvars));
  neg_.resize(static_cast<std::size_t>(nvars));
}

Cube Cube::parse(const std::string& s) {
  Cube c(static_cast<int>(s.size()));
  for (std::size_t i = 0; i < s.size(); ++i) {
    switch (s[i]) {
      case '1': c.add_pos(static_cast<int>(i)); break;
      case '0': c.add_neg(static_cast<int>(i)); break;
      case '-': case '2': break;
      default: throw std::invalid_argument("Cube::parse: bad character");
    }
  }
  return c;
}

bool Cube::eval(uint64_t minterm) const {
  assert(nvars_ <= 64);
  for (std::size_t w = 0; w < pos_.words(); ++w) {
    const uint64_t vals = minterm; // single word when nvars_ <= 64
    if ((pos_.word(w) & ~vals) != 0) return false;
    if ((neg_.word(w) & vals) != 0) return false;
  }
  return true;
}

bool Cube::eval(const BitVec& assignment) const {
  for (std::size_t w = 0; w < pos_.words(); ++w) {
    if ((pos_.word(w) & ~assignment.word(w)) != 0) return false;
    if ((neg_.word(w) & assignment.word(w)) != 0) return false;
  }
  return true;
}

bool Cube::covers(const Cube& other) const {
  return pos_.is_subset_of(other.pos_) && neg_.is_subset_of(other.neg_);
}

bool Cube::clashes(const Cube& other) const {
  const std::size_t nw = std::min(pos_.words(), other.pos_.words());
  for (std::size_t w = 0; w < nw; ++w)
    if (((pos_.word(w) & other.neg_.word(w)) |
         (neg_.word(w) & other.pos_.word(w))) != 0)
      return true;
  return false;
}

int Cube::distance(const Cube& other) const {
  int d = 0;
  for (std::size_t w = 0; w < pos_.words(); ++w) {
    uint64_t clash = (pos_.word(w) & other.neg_.word(w)) |
                     (neg_.word(w) & other.pos_.word(w));
    d += static_cast<int>(__builtin_popcountll(clash));
  }
  return d;
}

Cube Cube::intersect(const Cube& other) const {
  assert(!clashes(other));
  Cube r = *this;
  r.pos_ |= other.pos_;
  r.neg_ |= other.neg_;
  return r;
}

bool Cube::cofactor_inplace(int v, bool value) {
  if (value) {
    if (neg_.get(v)) return false;
    pos_.set(v, false);
  } else {
    if (pos_.get(v)) return false;
    neg_.set(v, false);
  }
  return true;
}

void Cube::drop_literals(const Cube& lits) {
  const std::size_t nw = std::min(pos_.words(), lits.pos_.words());
  for (std::size_t w = 0; w < nw; ++w) {
    const uint64_t keep = ~(lits.pos_.word(w) | lits.neg_.word(w));
    pos_.word(w) &= keep;
    neg_.word(w) &= keep;
  }
}

bool Cube::divisible_by(const Cube& divisor) const {
  return divisor.pos_.is_subset_of(pos_) && divisor.neg_.is_subset_of(neg_);
}

Cube Cube::divide(const Cube& divisor) const {
  assert(divisible_by(divisor));
  Cube r = *this;
  r.pos_ ^= divisor.pos_;
  r.neg_ ^= divisor.neg_;
  return r;
}

bool Cube::operator<(const Cube& o) const {
  if (pos_ == o.pos_) return neg_ < o.neg_;
  return pos_ < o.pos_;
}

std::string Cube::to_string() const {
  std::string s(static_cast<std::size_t>(nvars_), '-');
  for (int v = 0; v < nvars_; ++v) {
    if (pos_.get(v)) s[static_cast<std::size_t>(v)] = '1';
    else if (neg_.get(v)) s[static_cast<std::size_t>(v)] = '0';
  }
  return s;
}

std::size_t Cube::hash() const {
  return pos_.hash() * 0x9e3779b97f4a7c15ull + neg_.hash();
}

} // namespace rmsyn
