#include <algorithm>
#include <array>
#include <cctype>
#include <cstddef>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "analysis/source.hpp"
#include "analysis/suppress.hpp"
#include "qopt_perf/perf.hpp"

namespace qopt::perf {

namespace {

constexpr const char* kTool = "qopt-perf";

using analysis::allowed;
using analysis::Annotations;
using analysis::is_ident_char;
using analysis::line_of_offset;
using analysis::match_angle_brackets;
using analysis::read_identifier;
using analysis::split_lines;
using analysis::strip_comments_and_literals;

// ------------------------------------------------------- token utilities

/// True when [pos, pos+len) is a whole identifier token (word-bounded).
bool token_at(const std::string& text, std::size_t pos, std::size_t len) {
  if (pos > 0 && is_ident_char(text[pos - 1])) return false;
  if (pos + len < text.size() && is_ident_char(text[pos + len])) return false;
  return true;
}

std::size_t skip_ws(const std::string& text, std::size_t pos) {
  while (pos < text.size() &&
         std::isspace(static_cast<unsigned char>(text[pos]))) {
    ++pos;
  }
  return pos;
}

/// Index of the last non-whitespace char strictly before `pos`, or npos.
std::size_t prev_nonspace(const std::string& text, std::size_t pos) {
  while (pos > 0) {
    --pos;
    if (!std::isspace(static_cast<unsigned char>(text[pos]))) return pos;
  }
  return std::string::npos;
}

/// Reads the identifier ending at (and including) `end`; `start` receives
/// its first index. Empty when text[end] is not an identifier char.
std::string ident_ending_at(const std::string& text, std::size_t end,
                            std::size_t& start) {
  if (end == std::string::npos || !is_ident_char(text[end])) {
    start = end;
    return {};
  }
  start = end;
  while (start > 0 && is_ident_char(text[start - 1])) --start;
  return text.substr(start, end - start + 1);
}

/// Offset one past the ')' matching the '(' at `open`, or npos.
std::size_t match_parens(const std::string& text, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == '(') {
      ++depth;
    } else if (text[i] == ')') {
      if (--depth == 0) return i + 1;
    }
  }
  return std::string::npos;
}

/// Offset of the '}' matching the '{' at `open`, or npos.
std::size_t match_braces(const std::string& text, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == '{') {
      ++depth;
    } else if (text[i] == '}') {
      if (--depth == 0) return i;
    }
  }
  return std::string::npos;
}

/// Given the offset one past a parameter list's ')', skips trailing
/// qualifiers (const/noexcept[(...)]/override/final/mutable, `-> Type`, a
/// constructor init list) and returns the offset of the function body's
/// '{', or npos when the signature is a declaration (`;`) or the text is
/// not a function definition after all.
std::size_t body_open_after(const std::string& text, std::size_t pos) {
  for (;;) {
    pos = skip_ws(text, pos);
    if (pos >= text.size()) return std::string::npos;
    const char c = text[pos];
    if (c == '{') return pos;
    if (c == ';') return std::string::npos;
    if (c == '(') {  // noexcept(...)
      pos = match_parens(text, pos);
      if (pos == std::string::npos) return std::string::npos;
      continue;
    }
    if (c == ':') {
      // Constructor init list: the body '{' is the first brace at paren
      // depth 0 whose predecessor is ')' or '}' (an initializer closer);
      // a brace preceded by an identifier is a member brace-init.
      int depth = 0;
      for (std::size_t i = pos + 1; i < text.size(); ++i) {
        if (text[i] == '(') {
          ++depth;
        } else if (text[i] == ')') {
          --depth;
        } else if (text[i] == ';') {
          return std::string::npos;
        } else if (text[i] == '{' && depth == 0) {
          const std::size_t p = prev_nonspace(text, i);
          if (p != std::string::npos &&
              (text[p] == ')' || text[p] == '}')) {
            return i;
          }
          const std::size_t close = match_braces(text, i);
          if (close == std::string::npos) return std::string::npos;
          i = close;
        }
      }
      return std::string::npos;
    }
    if (c == '-' && pos + 1 < text.size() && text[pos + 1] == '>') {
      pos += 2;  // trailing return type: its tokens are skipped below
      continue;
    }
    if (c == '<') {
      pos = match_angle_brackets(text, pos);
      if (pos == std::string::npos) return std::string::npos;
      continue;
    }
    if (c == '&' || c == '*') {
      ++pos;
      continue;
    }
    if (is_ident_char(c)) {
      while (pos < text.size() && is_ident_char(text[pos])) ++pos;
      continue;
    }
    return std::string::npos;
  }
}

struct BodyRange {
  std::size_t open = 0;   // offset of '{'
  std::size_t close = 0;  // offset of '}'
};

/// Every '{...}' block that looks like executable code: the '{' follows a
/// ')' (function bodies, and harmlessly also if/for/while blocks — those
/// nest inside a function body, and callers take the *outermost* enclosing
/// range), possibly with trailing qualifiers or a `-> Type` between.
std::vector<BodyRange> body_ranges(const std::string& text) {
  std::vector<BodyRange> out;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '{') continue;
    bool opener = false;
    std::size_t p = prev_nonspace(text, i);
    for (int guard = 0; p != std::string::npos && guard < 8; ++guard) {
      const char c = text[p];
      if (c == ')') {
        opener = true;
        break;
      }
      if (is_ident_char(c)) {
        std::size_t start = p;
        const std::string tok = ident_ending_at(text, p, start);
        if (tok == "const" || tok == "noexcept" || tok == "override" ||
            tok == "final" || tok == "mutable" || tok == "try") {
          p = prev_nonspace(text, start);
          continue;
        }
        // A trailing return type's identifier: `... ) -> Time {`.
        const std::size_t q = prev_nonspace(text, start);
        if (q != std::string::npos && q > 0 && text[q] == '>' &&
            text[q - 1] == '-') {
          p = prev_nonspace(text, q - 1);
          continue;
        }
        if (q != std::string::npos && q > 0 && text[q] == ':' &&
            text[q - 1] == ':') {
          p = q >= 2 ? prev_nonspace(text, q - 1) : std::string::npos;
          continue;
        }
        break;
      }
      break;
    }
    if (!opener) continue;
    const std::size_t close = match_braces(text, i);
    if (close == std::string::npos) continue;
    out.push_back({i, close});
  }
  return out;
}

/// The outermost recorded body containing `offset`, or nullptr.
const BodyRange* enclosing_body(const std::vector<BodyRange>& bodies,
                                std::size_t offset) {
  const BodyRange* best = nullptr;
  for (const BodyRange& b : bodies) {
    if (b.open <= offset && offset <= b.close) {
      if (best == nullptr || b.open < best->open) best = &b;
    }
  }
  return best;
}

bool inside_any_body(const std::vector<BodyRange>& bodies,
                     std::size_t offset) {
  return enclosing_body(bodies, offset) != nullptr;
}

/// True when the line holding `pos` is a preprocessor directive (so a
/// token inside `#include <regex>` is not a use of std::regex).
bool on_directive_line(const std::string& text, std::size_t pos) {
  std::size_t start = text.rfind('\n', pos);
  start = start == std::string::npos ? 0 : start + 1;
  start = skip_ws(text, start);
  return start < text.size() && text[start] == '#';
}

/// True when the token at `pos` is qualified by exactly `std::`.
bool std_qualified(const std::string& text, std::size_t pos) {
  std::size_t q = prev_nonspace(text, pos);
  if (q == std::string::npos || q == 0 || text[q] != ':' ||
      text[q - 1] != ':') {
    return false;
  }
  q = q >= 2 ? prev_nonspace(text, q - 1) : std::string::npos;
  std::size_t start = 0;
  return ident_ending_at(text, q, start) == "std";
}

// ------------------------------------------------------------- the rules

struct Context {
  const std::string& path;
  const std::string& stripped;
  const std::string& header_stripped;
  const std::vector<bool>& hot;  // 1-based line mask
  const std::vector<BodyRange>& bodies;
  const Annotations& ann;
  const Options& options;
  std::vector<Finding>& findings;

  bool hot_line(std::size_t lineno) const {
    return lineno < hot.size() && hot[lineno];
  }
  void add(std::size_t lineno, const std::string& rule,
           const std::string& message) const {
    if (options.disabled_rules.count(rule) > 0) return;
    if (allowed(ann, lineno, rule)) return;
    findings.push_back({path, lineno, rule, message});
  }
};

/// Calls `fn(offset)` for every word-bounded occurrence of `token`.
template <typename Fn>
void for_each_token(const std::string& text, const std::string& token,
                    Fn&& fn) {
  std::size_t pos = 0;
  while ((pos = text.find(token, pos)) != std::string::npos) {
    if (token_at(text, pos, token.size())) fn(pos);
    pos += token.size();
  }
}

void check_heap_alloc(const Context& ctx) {
  const std::string& text = ctx.stripped;
  const auto flag = [&](std::size_t offset, const std::string& message) {
    const std::size_t lineno = line_of_offset(text, offset);
    if (ctx.hot_line(lineno)) ctx.add(lineno, "heap-alloc-hot", message);
  };

  for_each_token(text, "new", [&](std::size_t pos) {
    // `operator new` declarations (the alloc-gate hook) are not call sites.
    std::size_t start = 0;
    const std::size_t q = prev_nonspace(text, pos);
    if (ident_ending_at(text, q, start) == "operator") return;
    flag(pos,
         "`new` on a hot path: every simulated event pays this allocation; "
         "use an arena, a pool, or a preallocated slot");
  });
  for_each_token(text, "make_unique", [&](std::size_t pos) {
    flag(pos, "`make_unique` allocates on a hot path; preallocate or pool");
  });
  for_each_token(text, "make_shared", [&](std::size_t pos) {
    flag(pos,
         "`make_shared` allocates (and refcounts) on a hot path; "
         "preallocate or pool");
  });
  for_each_token(text, "function", [&](std::size_t pos) {
    if (!std_qualified(text, pos)) return;
    flag(pos,
         "`std::function` on a hot path: construction/assignment "
         "heap-allocates for non-trivial captures; use a flat event record "
         "or a template parameter");
  });
  for_each_token(text, "to_string", [&](std::size_t pos) {
    if (!std_qualified(text, pos)) return;
    flag(pos,
         "`std::to_string` allocates a string per call on a hot path; "
         "format into a reused buffer or defer to report time");
  });

  // String concatenation with a literal operand: `+ "..."`, `"..." +`,
  // `+= "..."`. Literal bodies are blanked but the quotes survive, so the
  // patterns are visible in the stripped text.
  const std::vector<std::string> lines = split_lines(text);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::size_t lineno = i + 1;
    if (!ctx.hot_line(lineno)) continue;
    const std::string& line = lines[i];
    if (line.find("+ \"") != std::string::npos ||
        line.find("\" +") != std::string::npos ||
        line.find("+= \"") != std::string::npos) {
      ctx.add(lineno, "heap-alloc-hot",
              "string concatenation on a hot path allocates; build "
              "human-readable text at report time, not per event");
    }
  }
}

/// Node-based containers: every element lives in its own heap node, so
/// inserting allocates and erasing frees. The unordered containers are node
/// containers too (one node per element, plus a bucket array that rehashes
/// as they grow).
constexpr std::array<const char*, 8> kNodeContainers = {
    "map",
    "set",
    "multimap",
    "multiset",
    "unordered_map",
    "unordered_set",
    "unordered_multimap",
    "unordered_multiset",
};

/// Names declared with a node-container type — variables, data members,
/// and functions returning (references to) them.
void collect_node_container_names(const std::string& stripped,
                                  std::set<std::string>& names) {
  for (const char* token : kNodeContainers) {
    for_each_token(stripped, token, [&](std::size_t pos) {
      std::size_t after = skip_ws(stripped, pos + std::string(token).size());
      if (after >= stripped.size() || stripped[after] != '<') return;
      const std::size_t close = match_angle_brackets(stripped, after);
      if (close == std::string::npos) return;
      std::size_t cursor = close;
      const std::string name = read_identifier(stripped, cursor);
      if (!name.empty()) names.insert(name);
    });
  }
}

void check_map_churn(const Context& ctx) {
  const std::string& text = ctx.stripped;
  static const std::set<std::string> kChurnOps = {
      "insert", "emplace", "try_emplace", "erase", "clear",
      "insert_or_assign"};

  std::set<std::string> names;
  collect_node_container_names(text, names);
  collect_node_container_names(ctx.header_stripped, names);

  for (const std::string& name : names) {
    for_each_token(text, name, [&](std::size_t pos) {
      const std::size_t lineno = line_of_offset(text, pos);
      if (!ctx.hot_line(lineno)) return;
      std::size_t after = skip_ws(text, pos + name.size());
      if (after >= text.size()) return;
      if (text[after] == '[') {
        ctx.add(lineno, "map-churn-hot",
                "operator[] on node container `" + name +
                    "` in a hot region: a miss allocates a node per event; "
                    "use find() or a flat/intrusive structure");
        return;
      }
      if (text[after] != '.') return;
      std::size_t cursor = after + 1;
      const std::string member = analysis::read_identifier(text, cursor);
      if (kChurnOps.count(member) > 0) {
        ctx.add(lineno, "map-churn-hot",
                "`" + name + "." + member +
                    "` in a hot region: node-container churn allocates per "
                    "event; use a flat/intrusive structure or hoist the "
                    "container out of the per-event path");
      }
    });
  }

  // A node container constructed inside a hot function body is churn by
  // construction (one node allocation per element, every event).
  for (const char* token : kNodeContainers) {
    for_each_token(text, token, [&](std::size_t pos) {
      const std::size_t lineno = line_of_offset(text, pos);
      if (!ctx.hot_line(lineno)) return;
      if (!inside_any_body(ctx.bodies, pos)) return;
      std::size_t after = skip_ws(text, pos + std::string(token).size());
      if (after >= text.size() || text[after] != '<') return;
      const std::size_t close = match_angle_brackets(text, after);
      if (close == std::string::npos) return;
      const std::size_t next = skip_ws(text, close);
      // Only a declaration of a by-value local: references, pointers, and
      // nested-type uses (`::iterator`) do not construct a container.
      if (next >= text.size() || !is_ident_char(text[next]) ||
          std::isdigit(static_cast<unsigned char>(text[next]))) {
        return;
      }
      ctx.add(lineno, "map-churn-hot",
              "node container constructed inside a hot function: one "
              "allocation per inserted element, every event; reuse a "
              "member scratch structure instead");
    });
  }
}

void check_vector_growth(const Context& ctx) {
  const std::string& text = ctx.stripped;
  for (const char* token : {"push_back", "emplace_back"}) {
    for_each_token(text, token, [&](std::size_t pos) {
      const std::size_t lineno = line_of_offset(text, pos);
      if (!ctx.hot_line(lineno)) return;
      const std::size_t q = prev_nonspace(text, pos);
      const bool member_call =
          q != std::string::npos &&
          (text[q] == '.' || (text[q] == '>' && q > 0 && text[q - 1] == '-'));
      if (!member_call) return;
      const BodyRange* body = enclosing_body(ctx.bodies, pos);
      if (body == nullptr) return;
      const std::string scope =
          text.substr(body->open, body->close - body->open + 1);
      bool reserved = false;
      for_each_token(scope, "reserve", [&](std::size_t) { reserved = true; });
      if (reserved) return;
      ctx.add(lineno, "vector-growth-hot",
              std::string("`") + token +
                  "` in a hot function with no `reserve` in scope: growth "
                  "reallocates and copies per event; reserve the known "
                  "bound first");
    });
  }
}

void check_byval_message(const Context& ctx,
                         const std::vector<std::string>& message_types) {
  const std::string& text = ctx.stripped;
  for (const std::string& type : message_types) {
    for_each_token(text, type, [&](std::size_t pos) {
      // Following token must be a parameter name (possibly east-const).
      std::size_t after = skip_ws(text, pos + type.size());
      if (after >= text.size() || !is_ident_char(text[after]) ||
          std::isdigit(static_cast<unsigned char>(text[after]))) {
        return;
      }
      std::size_t cursor = after;
      std::string name;
      while (cursor < text.size() && is_ident_char(text[cursor])) {
        name += text[cursor++];
      }
      if (name == "const") {
        const std::size_t next = skip_ws(text, cursor);
        if (next < text.size() && (text[next] == '&' || text[next] == '*')) {
          return;  // east-const reference/pointer
        }
      }
      // Preceding context must be a parameter list: '(' or ',' (skipping
      // back over `ns::` qualifiers and a `const`).
      std::size_t q = prev_nonspace(text, pos);
      while (q != std::string::npos && q > 0 && text[q] == ':' &&
             text[q - 1] == ':') {
        std::size_t start = 0;
        const std::size_t before =
            q >= 2 ? prev_nonspace(text, q - 1) : std::string::npos;
        if (ident_ending_at(text, before, start).empty()) return;
        q = start > 0 ? prev_nonspace(text, start) : std::string::npos;
      }
      if (q != std::string::npos && is_ident_char(text[q])) {
        std::size_t start = 0;
        if (ident_ending_at(text, q, start) != "const") return;
        q = start > 0 ? prev_nonspace(text, start) : std::string::npos;
      }
      if (q == std::string::npos || (text[q] != '(' && text[q] != ',')) {
        return;
      }
      const std::size_t lineno = line_of_offset(text, pos);
      ctx.add(lineno, "byval-message",
              "wire message `" + type +
                  "` passed by value: payload bytes are copied on every "
                  "hop; take `const " +
                  type + "&`");
    });
  }
}

void check_regex(const Context& ctx) {
  const std::string& text = ctx.stripped;
  for (const char* token :
       {"regex", "wregex", "regex_match", "regex_search", "regex_replace",
        "sregex_iterator", "smatch"}) {
    for_each_token(text, token, [&](std::size_t pos) {
      const std::size_t lineno = line_of_offset(text, pos);
      if (!ctx.hot_line(lineno)) return;
      if (on_directive_line(text, pos)) return;
      ctx.add(lineno, "regex-hot",
              "std::regex machinery in a hot region: compilation and "
              "matching allocate heavily; match tokens by hand or move "
              "the work off the per-event path");
    });
  }
}

void check_throw(const Context& ctx) {
  const std::string& text = ctx.stripped;
  for_each_token(text, "throw", [&](std::size_t pos) {
    const std::size_t lineno = line_of_offset(text, pos);
    if (!ctx.hot_line(lineno)) return;
    ctx.add(lineno, "throw-hot",
            "`throw` in a hot region: exception dispatch allocates and "
            "breaks branch prediction; signal per-event outcomes with "
            "return values");
  });
}

std::string companion_header_source(const std::string& path) {
  namespace fs = std::filesystem;
  const fs::path p(path);
  const std::string ext = p.extension().string();
  if (ext != ".cpp" && ext != ".cc") return {};
  for (const char* header_ext : {".hpp", ".h"}) {
    fs::path header = p;
    header.replace_extension(header_ext);
    std::string header_source;
    if (analysis::read_file(header.string(), header_source)) {
      return header_source;
    }
  }
  return {};
}

}  // namespace

const std::vector<std::string>& rule_names() {
  static const std::vector<std::string> kRules = {
      "heap-alloc-hot", "map-churn-hot", "vector-growth-hot",
      "byval-message",  "regex-hot",     "throw-hot"};
  return kRules;
}

std::vector<bool> hot_lines(const std::string& rel_path,
                            const std::string& stripped,
                            const Manifest& manifest) {
  const std::size_t nlines =
      static_cast<std::size_t>(
          std::count(stripped.begin(), stripped.end(), '\n')) +
      1;
  std::vector<bool> hot(nlines + 1, false);
  for (const HotRegion& region : manifest.regions) {
    if (region.path.empty() || !rel_path.starts_with(region.path)) continue;
    if (region.functions.empty()) {
      std::fill(hot.begin() + 1, hot.end(), true);
      continue;
    }
    for (const std::string& fn : region.functions) {
      for_each_token(stripped, fn, [&](std::size_t pos) {
        std::size_t after = skip_ws(stripped, pos + fn.size());
        if (after >= stripped.size() || stripped[after] != '(') return;
        const std::size_t params = match_parens(stripped, after);
        if (params == std::string::npos) return;
        const std::size_t open = body_open_after(stripped, params);
        if (open == std::string::npos) return;
        const std::size_t close = match_braces(stripped, open);
        if (close == std::string::npos) return;
        const std::size_t first = line_of_offset(stripped, pos);
        const std::size_t last = line_of_offset(stripped, close);
        for (std::size_t l = first; l <= last && l < hot.size(); ++l) {
          hot[l] = true;
        }
      });
    }
  }
  return hot;
}

std::vector<Finding> analyze_source(const std::string& rel_path,
                                    const std::string& source,
                                    const std::string& header_source,
                                    const Manifest& manifest,
                                    const Options& options) {
  std::vector<Finding> findings;
  const std::vector<std::string> raw_lines = split_lines(source);
  const Annotations ann =
      analysis::scan_annotations(kTool, rel_path, raw_lines);
  findings.insert(findings.end(), ann.findings.begin(), ann.findings.end());

  const std::string stripped = strip_comments_and_literals(source);
  const std::string header_stripped =
      header_source.empty() ? std::string{}
                            : strip_comments_and_literals(header_source);
  const std::vector<bool> hot = hot_lines(rel_path, stripped, manifest);
  const std::vector<BodyRange> bodies = body_ranges(stripped);

  const Context ctx{rel_path, stripped, header_stripped, hot,
                    bodies,   ann,      options,          findings};
  check_heap_alloc(ctx);
  check_map_churn(ctx);
  check_vector_growth(ctx);
  check_byval_message(ctx, manifest.message_types);
  check_regex(ctx);
  check_throw(ctx);

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return findings;
}

std::vector<Finding> analyze_file(const std::string& root,
                                  const std::string& rel_path,
                                  const Manifest& manifest,
                                  const Options& options) {
  const std::string full =
      root.empty() ? rel_path : root + "/" + rel_path;
  std::string source;
  if (!analysis::read_file(full, source)) {
    return {{rel_path, 0, "io", "cannot read file"}};
  }
  return analyze_source(rel_path, source, companion_header_source(full),
                        manifest, options);
}

std::vector<analysis::Suppression> file_suppressions(const std::string& path) {
  std::string source;
  if (!analysis::read_file(path, source)) return {};
  return analysis::scan_annotations(kTool, path, split_lines(source))
      .suppressions;
}

std::string format_finding(const Finding& finding) {
  return analysis::format_finding(finding);
}

}  // namespace qopt::perf
