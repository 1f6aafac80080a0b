#include "lb/metrics.hpp"

#include <bit>
#include <sstream>

#include "common/parse.hpp"
#include "search/bound.hpp"

namespace simdts::lb {

IterationStats& IterationStats::operator+=(const IterationStats& o) {
  nodes_expanded += o.nodes_expanded;
  goals_found += o.goals_found;
  expand_cycles += o.expand_cycles;
  lb_phases += o.lb_phases;
  lb_rounds += o.lb_rounds;
  transfers += o.transfers;
  pes_killed += o.pes_killed;
  pes_revived += o.pes_revived;
  nodes_recovered += o.nodes_recovered;
  recovery_phases += o.recovery_phases;
  recovery_rounds += o.recovery_rounds;
  messages_dropped += o.messages_dropped;
  clock += o.clock;
  // bound / next_bound / trace are per-iteration quantities; keep the
  // accumulator's values untouched.
  return *this;
}

std::string summarize(const IterationStats& s) {
  std::ostringstream os;
  os << "bound=" << search::describe(s.bound) << " W=" << s.nodes_expanded
     << " goals=" << s.goals_found << " Nexpand=" << s.expand_cycles
     << " Nlb=" << s.lb_phases << " rounds=" << s.lb_rounds
     << " transfers=" << s.transfers << " E=" << s.efficiency();
  if (s.pes_killed > 0 || s.messages_dropped > 0) {
    os << " killed=" << s.pes_killed << " revived=" << s.pes_revived
       << " recovered=" << s.nodes_recovered
       << " recovery_rounds=" << s.recovery_rounds
       << " dropped=" << s.messages_dropped;
  }
  return os.str();
}

std::string summarize(const RunStats& s) {
  std::ostringstream os;
  os << "solution=" << search::describe(s.solution_bound)
     << " goals=" << s.goals_found << " iterations=" << s.iterations.size()
     << " W=" << s.total.nodes_expanded
     << " Nexpand=" << s.total.expand_cycles << " Nlb=" << s.total.lb_phases
     << " rounds=" << s.total.lb_rounds << " E=" << s.efficiency();
  return os.str();
}

namespace {

void put_f64(std::ostream& os, double v) {
  os << ' ' << std::bit_cast<std::uint64_t>(v);
}

bool get_u64(std::istream& is, std::uint64_t& v) {
  return common::read_uint(is, v);
}

bool get_f64(std::istream& is, double& v) {
  std::uint64_t bits = 0;
  if (!common::read_uint(is, bits)) return false;
  v = std::bit_cast<double>(bits);
  return true;
}

bool get_bound(std::istream& is, search::Bound& v) {
  return static_cast<bool>(is >> v);  // out of range fails, never wraps
}

}  // namespace

std::string encode_journal(const IterationStats& s) {
  std::ostringstream os;
  os << "v1 " << static_cast<std::int64_t>(s.bound) << ' ' << s.nodes_expanded
     << ' ' << s.goals_found << ' ' << static_cast<std::int64_t>(s.next_bound)
     << ' ' << s.expand_cycles << ' ' << s.lb_phases << ' ' << s.lb_rounds
     << ' ' << s.transfers << ' ' << s.pes_killed << ' ' << s.pes_revived
     << ' ' << s.nodes_recovered << ' ' << s.recovery_phases << ' '
     << s.recovery_rounds << ' ' << s.messages_dropped;
  put_f64(os, s.clock.elapsed);
  put_f64(os, s.clock.calc_time);
  put_f64(os, s.clock.idle_time);
  put_f64(os, s.clock.lb_time);
  put_f64(os, s.clock.recovery_time);
  os << ' ' << s.clock.expand_cycles << ' ' << s.clock.lb_rounds << ' '
     << s.clock.recovery_rounds << ' ' << s.clock.nodes_expanded;
  return os.str();
}

bool decode_journal(const std::string& payload, IterationStats& out) {
  std::istringstream is(payload);
  std::string version;
  if (!(is >> version) || version != "v1") return false;
  IterationStats s;
  if (!get_bound(is, s.bound) || !get_u64(is, s.nodes_expanded) ||
      !get_u64(is, s.goals_found) || !get_bound(is, s.next_bound) ||
      !get_u64(is, s.expand_cycles) || !get_u64(is, s.lb_phases) ||
      !get_u64(is, s.lb_rounds) || !get_u64(is, s.transfers) ||
      !get_u64(is, s.pes_killed) || !get_u64(is, s.pes_revived) ||
      !get_u64(is, s.nodes_recovered) || !get_u64(is, s.recovery_phases) ||
      !get_u64(is, s.recovery_rounds) || !get_u64(is, s.messages_dropped) ||
      !get_f64(is, s.clock.elapsed) || !get_f64(is, s.clock.calc_time) ||
      !get_f64(is, s.clock.idle_time) || !get_f64(is, s.clock.lb_time) ||
      !get_f64(is, s.clock.recovery_time) ||
      !get_u64(is, s.clock.expand_cycles) || !get_u64(is, s.clock.lb_rounds) ||
      !get_u64(is, s.clock.recovery_rounds) ||
      !get_u64(is, s.clock.nodes_expanded)) {
    return false;
  }
  std::string extra;
  if (is >> extra) return false;  // trailing garbage: treat as torn
  out = std::move(s);
  return true;
}

}  // namespace simdts::lb
