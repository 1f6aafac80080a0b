#include "simdlint/include_graph.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <utility>

namespace simdlint {

namespace {

// The layering DAG, mirrored from src/CMakeLists.txt and the diagram in
// docs/static-analysis.md.  A module may include any module of a *strictly
// lower* rank (and itself); the rank-5 domain modules are siblings that must
// stay independent of each other.
constexpr std::pair<const char*, int> kModuleRanks[] = {
    {"common", 0},   {"sanitizer", 1}, {"simd", 2},   {"search", 3},
    {"fault", 4},    {"synthetic", 5}, {"puzzle", 5}, {"queens", 5},
    {"tsp", 5},      {"mimd", 5},      {"lb", 6},     {"baselines", 7},
    {"runtime", 8},  {"analysis", 9},  {"service", 9},
    // Scoped entry for the standalone tooling: tools/ may depend on any
    // library layer, but no src/ module may ever include tools/ headers.
    {"tools", 99},
};

}  // namespace

std::vector<IncludeEdge> quoted_includes(const SourceFile& file) {
  std::vector<IncludeEdge> out;
  const std::string& code = file.code;
  const std::string& raw = file.raw;
  const std::size_t n = code.size();
  std::size_t i = 0;
  std::size_t line = 1;
  // Directive-internal whitespace includes backslash-newline continuations:
  // `#include \<newline>    "foo.hpp"` is one logical directive, attributed
  // to the line the `#` sits on.
  auto skip_ws = [&](std::size_t j) {
    while (j < n) {
      if (code[j] == ' ' || code[j] == '\t') {
        ++j;
      } else if (code[j] == '\\' && j + 1 < n && code[j + 1] == '\n') {
        j += 2;
      } else if (code[j] == '\\' && j + 2 < n && code[j + 1] == '\r' &&
                 code[j + 2] == '\n') {
        j += 3;
      } else {
        break;
      }
    }
    return j;
  };
  auto at_directive_end = [&](std::size_t j) {
    return j >= n || code[j] == '\n' || code[j] == '\r' || code[j] == ' ' ||
           code[j] == '\t' || code[j] == '/';
  };
  // Nesting depth of the innermost `#if 0` region.  Includes inside a
  // disabled block are dead text, not edges; `#else`/`#elif` directly under
  // the `#if 0` re-enables the tail, and its closing `#endif` is absorbed.
  int if0_depth = 0;
  while (i < n) {
    std::size_t j = skip_ws(i);
    if (j < n && code[j] == '#') {
      j = skip_ws(j + 1);
      if (if0_depth > 0) {
        if (code.compare(j, 2, "if") == 0 && (code.compare(j, 5, "ifdef") == 0 ||
                                              code.compare(j, 6, "ifndef") == 0 ||
                                              at_directive_end(j + 2))) {
          ++if0_depth;
        } else if (code.compare(j, 5, "endif") == 0) {
          --if0_depth;
        } else if (if0_depth == 1 && (code.compare(j, 4, "else") == 0 ||
                                      code.compare(j, 4, "elif") == 0)) {
          if0_depth = 0;
        }
      } else if (code.compare(j, 2, "if") == 0 && at_directive_end(j + 2)) {
        const std::size_t k = skip_ws(j + 2);
        if (k < n && code[k] == '0' && at_directive_end(k + 1)) if0_depth = 1;
      } else if (code.compare(j, 7, "include") == 0) {
        j = skip_ws(j + 7);
        if (j < n && code[j] == '"') {
          // The path characters are blanked in `code` (string contents), but
          // blanking preserves byte offsets, so read them back from `raw`.
          const std::size_t open = j + 1;
          std::size_t close = open;
          while (close < n && raw[close] != '"' && raw[close] != '\n') {
            ++close;
          }
          if (close < n && raw[close] == '"') {
            out.push_back(IncludeEdge{line, raw.substr(open, close - open)});
          }
        }
      }
    }
    while (i < n && code[i] != '\n') ++i;
    if (i < n) {
      ++i;
      ++line;
    }
  }
  return out;
}

std::string module_of(const std::string& path) {
  std::string p = path;
  if (p.compare(0, 4, "src/") == 0) p = p.substr(4);
  const std::size_t slash = p.find('/');
  if (slash == std::string::npos || slash == 0) return "";
  return p.substr(0, slash);
}

int module_rank(const std::string& module) {
  for (const auto& [name, rank] : kModuleRanks) {
    if (module == name) return rank;
  }
  return -1;
}

namespace {

class LayeringRule final : public Rule {
 public:
  std::string id() const override { return "layering"; }
  std::string summary() const override {
    return "src/ modules must respect the layering DAG: no include of a "
           "higher layer, no include between sibling domain modules";
  }
  bool applies(const std::string& path) const override {
    // tools/ participates as the rank-99 sink: free to include any library
    // layer, while a src/ include of "tools/..." fires as a violation.
    return path_in_dir(path, "src") || path_in_dir(path, "tools");
  }
  void check(const SourceFile& f, std::vector<Finding>& out) const override {
    const std::string from_mod = module_of(f.path);
    const int from_rank = module_rank(from_mod);
    if (from_rank < 0) return;
    for (const IncludeEdge& e : quoted_includes(f)) {
      // A bare filename is a same-directory include; module includes in this
      // repo are always "module/file.hpp" relative to src/.
      if (e.target.find('/') == std::string::npos) continue;
      const std::string to_mod = module_of(e.target);
      const int to_rank = module_rank(to_mod);
      if (to_rank < 0 || to_mod == from_mod) continue;
      if (to_rank == from_rank || to_rank > from_rank) {
        Finding finding;
        finding.rule = id();
        finding.path = f.path;
        finding.line = e.line;
        std::ostringstream os;
        if (to_rank > from_rank) {
          os << "layering violation: " << from_mod << " (rank " << from_rank
             << ") includes \"" << e.target << "\" from higher-ranked "
             << to_mod << " (rank " << to_rank << ")";
        } else {
          os << "layering violation: sibling domain modules " << from_mod
             << " and " << to_mod
             << " must stay independent (both rank " << from_rank << ")";
        }
        finding.message = os.str();
        finding.excerpt = f.line_text(e.line);
        out.push_back(std::move(finding));
      }
    }
  }
};

}  // namespace

std::unique_ptr<Rule> make_layering_rule() {
  return std::make_unique<LayeringRule>();
}

std::vector<Finding> find_include_cycles(const std::vector<SourceFile>& files) {
  // Index the src/ files by path and build the quoted-include graph,
  // resolving "module/file.hpp" targets against the src/ root.  Targets not
  // in the file set (system headers, unlinted files) contribute no edge.
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (path_in_dir(files[i].path, "src")) index.emplace(files[i].path, i);
  }
  struct Edge {
    std::size_t to;
    std::size_t line;
  };
  std::map<std::size_t, std::vector<Edge>> graph;
  for (const auto& [path, i] : index) {
    for (const IncludeEdge& e : quoted_includes(files[i])) {
      const auto it = index.find("src/" + e.target);
      if (it != index.end()) {
        graph[i].push_back(Edge{it->second, e.line});
      }
    }
  }

  // Iterative DFS with the usual three colors; a back edge to a grey node
  // closes a cycle, read off the explicit stack.  Each distinct cycle is
  // keyed by its rotation starting at the smallest path, so revisits from
  // different roots report it once.
  enum class Color { kWhite, kGrey, kBlack };
  std::map<std::size_t, Color> color;
  for (const auto& [path, i] : index) color[i] = Color::kWhite;

  std::set<std::string> seen_cycles;
  std::vector<Finding> out;

  struct Frame {
    std::size_t node;
    std::size_t next_edge;
  };
  std::vector<Frame> stack;

  auto report_cycle = [&](const std::vector<std::size_t>& cycle) {
    // Rotate so the smallest path leads.
    std::size_t lead = 0;
    for (std::size_t k = 1; k < cycle.size(); ++k) {
      if (files[cycle[k]].path < files[cycle[lead]].path) lead = k;
    }
    std::vector<std::size_t> rotated;
    rotated.reserve(cycle.size());
    for (std::size_t k = 0; k < cycle.size(); ++k) {
      rotated.push_back(cycle[(lead + k) % cycle.size()]);
    }
    std::ostringstream chain;
    for (const std::size_t node : rotated) chain << files[node].path << " -> ";
    chain << files[rotated[0]].path;
    if (!seen_cycles.insert(chain.str()).second) return;

    Finding f;
    f.rule = "include-cycle";
    f.path = files[rotated[0]].path;
    f.line = 0;
    for (const Edge& e : graph[rotated[0]]) {
      if (e.to == rotated[1 % rotated.size()]) {
        f.line = e.line;
        break;
      }
    }
    f.message = "include cycle: " + chain.str();
    f.excerpt = f.line != 0 ? files[rotated[0]].line_text(f.line) : "";
    out.push_back(std::move(f));
  };

  for (const auto& [path, root] : index) {
    if (color[root] != Color::kWhite) continue;
    stack.push_back(Frame{root, 0});
    color[root] = Color::kGrey;
    while (!stack.empty()) {
      Frame& top = stack.back();
      const std::vector<Edge>& edges = graph[top.node];
      if (top.next_edge < edges.size()) {
        const std::size_t to = edges[top.next_edge++].to;
        if (color[to] == Color::kWhite) {
          color[to] = Color::kGrey;
          stack.push_back(Frame{to, 0});
        } else if (color[to] == Color::kGrey) {
          // Grey means on the current DFS stack: the frames from `to` up to
          // the top are the cycle.
          std::size_t k = stack.size();
          while (k > 0 && stack[k - 1].node != to) --k;
          std::vector<std::size_t> cycle;
          for (std::size_t m = k - 1; m < stack.size(); ++m) {
            cycle.push_back(stack[m].node);
          }
          report_cycle(cycle);
        }
      } else {
        color[top.node] = Color::kBlack;
        stack.pop_back();
      }
    }
  }

  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    if (a.path != b.path) return a.path < b.path;
    return a.message < b.message;
  });
  return out;
}

}  // namespace simdlint
