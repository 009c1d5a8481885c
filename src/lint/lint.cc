#include "lint/lint.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "common/json.h"

namespace bbrmodel::lint {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------ tokenizer --
//
// A flat lexical pass: identifiers, numbers, string/char literals (content
// preserved — the csv-number rule inspects format strings, the atomic-io
// rule inspects fopen modes), and punctuation ("::" and "->" kept as one
// token so the checkers can tell member access and scope resolution from
// the range-for colon). Comments are captured separately for suppression
// parsing; preprocessor lines are skipped wholesale.

struct Token {
  enum class Kind { kIdent, kNumber, kString, kChar, kPunct };
  Kind kind = Kind::kPunct;
  std::string text;  // for kString: the literal's content, quotes stripped
  std::size_t line = 0;
};

struct Comment {
  std::size_t line = 0;
  std::string text;
};

struct Lexed {
  std::vector<Token> tokens;
  std::vector<Comment> comments;
};

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

Lexed lex(const std::string& src) {
  Lexed out;
  std::size_t i = 0;
  std::size_t line = 1;
  bool line_has_token = false;  // false while only whitespace seen so far
  const std::size_t n = src.size();
  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      line_has_token = false;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Preprocessor directive: skip the whole logical line (incl. \-splices).
    if (c == '#' && !line_has_token) {
      while (i < n && src[i] != '\n') {
        if (src[i] == '\\' && i + 1 < n && src[i + 1] == '\n') {
          ++line;
          i += 2;
          continue;
        }
        ++i;
      }
      continue;
    }
    line_has_token = true;
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      const std::size_t start = i + 2;
      while (i < n && src[i] != '\n') ++i;
      out.comments.push_back({line, src.substr(start, i - start)});
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      std::size_t j = i + 2;
      std::size_t comment_line = line;
      std::string text;
      while (j + 1 < n && !(src[j] == '*' && src[j + 1] == '/')) {
        if (src[j] == '\n') {
          out.comments.push_back({comment_line, text});
          text.clear();
          ++line;
          comment_line = line;
        } else {
          text += src[j];
        }
        ++j;
      }
      out.comments.push_back({comment_line, text});
      i = j + 2 <= n ? j + 2 : n;
      continue;
    }
    if (c == '"') {
      // Raw strings: the rare R"( ... )" form, delimiter-free only.
      const bool raw = !out.tokens.empty() &&
                       out.tokens.back().kind == Token::Kind::kIdent &&
                       out.tokens.back().text == "R" && i > 0 &&
                       src[i - 1] == 'R' && i + 1 < n && src[i + 1] == '(';
      std::string text;
      std::size_t j = i + 1;
      if (raw) {
        j = i + 2;
        while (j + 1 < n && !(src[j] == ')' && src[j + 1] == '"')) {
          if (src[j] == '\n') ++line;
          text += src[j];
          ++j;
        }
        j += 2;
        out.tokens.pop_back();  // drop the R prefix token
      } else {
        while (j < n && src[j] != '"') {
          if (src[j] == '\\' && j + 1 < n) {
            text += src[j];
            text += src[j + 1];
            j += 2;
            continue;
          }
          if (src[j] == '\n') ++line;  // unterminated; be forgiving
          text += src[j];
          ++j;
        }
        ++j;
      }
      out.tokens.push_back({Token::Kind::kString, text, line});
      i = j;
      continue;
    }
    if (c == '\'') {
      std::size_t j = i + 1;
      std::string text;
      while (j < n && src[j] != '\'') {
        if (src[j] == '\\' && j + 1 < n) {
          text += src[j + 1];
          j += 2;
          continue;
        }
        text += src[j];
        ++j;
      }
      out.tokens.push_back({Token::Kind::kChar, text, line});
      i = j + 1;
      continue;
    }
    if (ident_start(c)) {
      std::size_t j = i;
      while (j < n && ident_char(src[j])) ++j;
      out.tokens.push_back({Token::Kind::kIdent, src.substr(i, j - i), line});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(src[i + 1])))) {
      std::size_t j = i;
      while (j < n && (ident_char(src[j]) || src[j] == '.' ||
                       ((src[j] == '+' || src[j] == '-') && j > i &&
                        std::strchr("eEpP", src[j - 1]) != nullptr))) {
        ++j;
      }
      out.tokens.push_back({Token::Kind::kNumber, src.substr(i, j - i), line});
      i = j;
      continue;
    }
    // Two-char punctuators the checkers care about.
    if (c == ':' && i + 1 < n && src[i + 1] == ':') {
      out.tokens.push_back({Token::Kind::kPunct, "::", line});
      i += 2;
      continue;
    }
    if (c == '-' && i + 1 < n && src[i + 1] == '>') {
      out.tokens.push_back({Token::Kind::kPunct, "->", line});
      i += 2;
      continue;
    }
    out.tokens.push_back({Token::Kind::kPunct, std::string(1, c), line});
    ++i;
  }
  return out;
}

// ---------------------------------------------------------- rule scoping --

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

bool in_layers(const std::string& path, const std::vector<std::string>& layers) {
  for (const auto& layer : layers) {
    if (starts_with(path, layer)) return true;
  }
  return false;
}

const char* kResultLayersNote =
    "result-producing layers (sweep, orchestrator, core, metrics, adaptive, "
    "analysis, tools)";

// ------------------------------------------------------------- checkers --

using Tokens = std::vector<Token>;

void add_finding(std::vector<Finding>& out, const std::string& path,
                 std::size_t line, const char* rule, std::string message) {
  out.push_back({path, line, rule, std::move(message)});
}

/// Names of variables/members declared as std::unordered_{map,set} in this
/// token stream (declarations, members, and reference parameters alike).
std::set<std::string> unordered_names(const Tokens& tokens) {
  std::set<std::string> names;
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (t.kind != Token::Kind::kIdent ||
        (t.text != "unordered_map" && t.text != "unordered_set" &&
         t.text != "unordered_multimap" && t.text != "unordered_multiset")) {
      continue;
    }
    std::size_t j = i + 1;
    if (j >= tokens.size() || tokens[j].text != "<") continue;
    int depth = 0;
    for (; j < tokens.size(); ++j) {
      if (tokens[j].text == "<") ++depth;
      if (tokens[j].text == ">") {
        if (--depth == 0) break;
      }
    }
    for (++j; j < tokens.size(); ++j) {
      const std::string& s = tokens[j].text;
      if (s == "&" || s == "*" || s == "const") continue;
      if (tokens[j].kind == Token::Kind::kIdent) names.insert(s);
      break;
    }
  }
  return names;
}

void check_unordered_iteration(const std::string& path, const Tokens& tokens,
                               const std::set<std::string>& names,
                               std::vector<Finding>& out) {
  if (names.empty()) return;
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    // member.begin() / member->cbegin(): iterator-style traversal.
    if (tokens[i].kind == Token::Kind::kIdent && names.count(tokens[i].text) &&
        i + 2 < tokens.size() &&
        (tokens[i + 1].text == "." || tokens[i + 1].text == "->") &&
        (tokens[i + 2].text == "begin" || tokens[i + 2].text == "cbegin" ||
         tokens[i + 2].text == "rbegin" || tokens[i + 2].text == "crbegin")) {
      add_finding(out, path, tokens[i].line, "no-unordered-iteration",
                  "iterating unordered container '" + tokens[i].text +
                      "' leaks hash order into " + kResultLayersNote +
                      "; copy into a sorted container first");
    }
    // Range-for whose range expression mentions a tracked name.
    if (tokens[i].kind != Token::Kind::kIdent || tokens[i].text != "for" ||
        tokens[i + 1].text != "(") {
      continue;
    }
    int depth = 0;
    std::size_t colon = 0;
    std::size_t close = 0;
    for (std::size_t j = i + 1; j < tokens.size(); ++j) {
      if (tokens[j].text == "(") ++depth;
      if (tokens[j].text == ")" && --depth == 0) {
        close = j;
        break;
      }
      if (depth == 1 && colon == 0 && tokens[j].text == ":") colon = j;
    }
    if (colon == 0 || close == 0) continue;
    for (std::size_t j = colon + 1; j < close; ++j) {
      if (tokens[j].kind == Token::Kind::kIdent && names.count(tokens[j].text)) {
        add_finding(out, path, tokens[i].line, "no-unordered-iteration",
                    "range-for over unordered container '" + tokens[j].text +
                        "' leaks hash order into " + kResultLayersNote +
                        "; copy into a sorted container first");
        break;
      }
    }
  }
}

void check_wallclock(const std::string& path, const Tokens& tokens,
                     std::vector<Finding>& out) {
  static const std::set<std::string> kAlways = {
      "system_clock", "random_device", "gettimeofday", "localtime",
      "localtime_r", "gmtime",         "srand",        "drand48",
      "timespec_get"};
  static const std::set<std::string> kIfCalled = {"rand", "time", "clock"};
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (t.kind != Token::Kind::kIdent) continue;
    bool hit = kAlways.count(t.text) > 0;
    if (!hit && kIfCalled.count(t.text) > 0 && i + 1 < tokens.size() &&
        tokens[i + 1].text == "(") {
      // Member calls (obj.time(), obj->clock()) are unrelated APIs.
      const bool member =
          i > 0 && (tokens[i - 1].text == "." || tokens[i - 1].text == "->");
      hit = !member;
    }
    if (hit) {
      add_finding(out, path, t.line, "no-wallclock-in-hot-path",
                  "'" + t.text +
                      "' makes results depend on when/where they ran; derive "
                      "time and seeds from the spec (common/rng) or move this "
                      "to src/obs/ timing code");
    }
  }
}

void check_atomic_io(const std::string& path, const Tokens& tokens,
                     std::vector<Finding>& out) {
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (t.kind != Token::Kind::kIdent) continue;
    if (t.text == "ofstream") {
      add_finding(out, path, t.line, "atomic-io-required",
                  "raw ofstream write under src/orchestrator/ — queue-visible "
                  "files must go through common/atomic_io (write + rename) so "
                  "readers never see a torn file");
      continue;
    }
    if (t.text != "fopen" && t.text != "freopen") continue;
    if (i + 1 >= tokens.size() || tokens[i + 1].text != "(") continue;
    // The mode is the last string literal in the call's argument list
    // (the path is usually .c_str(), not a literal).
    int depth = 0;
    const std::string* mode = nullptr;
    for (std::size_t j = i + 1; j < tokens.size(); ++j) {
      if (tokens[j].text == "(") ++depth;
      if (tokens[j].text == ")" && --depth == 0) break;
      if (tokens[j].kind == Token::Kind::kString) mode = &tokens[j].text;
    }
    const bool writes =
        mode == nullptr || mode->find_first_of("wa+") != std::string::npos;
    if (writes) {
      add_finding(out, path, t.line, "atomic-io-required",
                  "fopen in write mode under src/orchestrator/ — queue-visible "
                  "files must go through common/atomic_io (write + rename) so "
                  "readers never see a torn file");
    }
  }
}

void check_raw_fprintf(const std::string& path, const Tokens& tokens,
                       std::vector<Finding>& out) {
  static const std::set<std::string> kBanned = {"fprintf", "vfprintf",
                                                "perror"};
  for (const Token& t : tokens) {
    if (t.kind == Token::Kind::kIdent && kBanned.count(t.text)) {
      add_finding(out, path, t.line, "no-raw-fprintf",
                  "'" + t.text +
                      "' bypasses obs::log — diagnostics must carry the "
                      "worker tag and write one line per call so concurrent "
                      "processes cannot shear each other's output");
    }
  }
}

void check_single_writer_shard(const std::string& path, const Tokens& tokens,
                               std::vector<Finding>& out) {
  static const std::set<std::string> kRmw = {
      "fetch_add", "fetch_sub",             "fetch_and",
      "fetch_or",  "fetch_xor",             "compare_exchange_weak",
      "exchange",  "compare_exchange_strong"};
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (t.kind != Token::Kind::kIdent || kRmw.count(t.text) == 0) continue;
    // Only member calls on atomics; std::exchange et al. are unrelated.
    const bool member =
        i > 0 && (tokens[i - 1].text == "." || tokens[i - 1].text == "->");
    if (t.text == "exchange" && !member) continue;
    add_finding(out, path, t.line, "single-writer-shard",
                "atomic RMW ('" + t.text +
                    "') in src/obs/ — hot-path metric shards are "
                    "single-writer by contract (plain load + store); an RMW "
                    "here either hides a second writer or pays for one that "
                    "should not exist");
  }
}

/// True when `s` contains a printf floating-point conversion (%g, %.17g,
/// %-8.2f, %Le, %a ...). "%%" escapes are skipped.
bool has_float_format(const std::string& s) {
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '%') continue;
    std::size_t j = i + 1;
    if (j < s.size() && s[j] == '%') {
      i = j;
      continue;
    }
    while (j < s.size() && std::strchr("-+ #0'", s[j]) != nullptr) ++j;
    while (j < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[j])) || s[j] == '*')) {
      ++j;
    }
    if (j < s.size() && s[j] == '.') {
      ++j;
      while (j < s.size() &&
             (std::isdigit(static_cast<unsigned char>(s[j])) || s[j] == '*')) {
        ++j;
      }
    }
    while (j < s.size() && std::strchr("lLhjzt", s[j]) != nullptr) ++j;
    if (j < s.size() && std::strchr("eEfFgGaA", s[j]) != nullptr) return true;
  }
  return false;
}

void check_csv_number(const std::string& path, const Tokens& tokens,
                      std::vector<Finding>& out) {
  // Callee tracking: the identifier directly before each open paren.
  std::vector<std::string> callees;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (t.text == "(") {
      callees.push_back(i > 0 && tokens[i - 1].kind == Token::Kind::kIdent
                            ? tokens[i - 1].text
                            : "");
      continue;
    }
    if (t.text == ")") {
      if (!callees.empty()) callees.pop_back();
      continue;
    }
    if (t.kind == Token::Kind::kIdent &&
        (t.text == "setprecision" || t.text == "hexfloat")) {
      add_finding(out, path, t.line, "csv-number-required",
                  "manual stream precision in a result-producing layer — "
                  "doubles reach result streams only through the "
                  "common/number codec (csv_number, json_number)");
      continue;
    }
    if (t.kind != Token::Kind::kString || !has_float_format(t.text)) continue;
    // Diagnostics through obs::log never feed result files.
    const std::string callee = callees.empty() ? "" : callees.back();
    if (callee == "log" || callee == "vlog") continue;
    add_finding(out, path, t.line, "csv-number-required",
                "float printf conversion outside common/number — format "
                "result doubles with csv_number/json_number so identical "
                "results serialize to identical bytes");
  }
}

// ---------------------------------------------------------- suppressions --

struct Suppression {
  std::string rule;
  std::string justification;
  std::size_t line = 0;
  bool used = false;
};

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<Suppression> parse_suppressions(const std::vector<Comment>& comments) {
  // Coalesce runs of comment lines into blocks so a justification may wrap
  // across lines. A block's suppression anchors at its LAST line: a block
  // standing alone above a statement covers that statement, a trailing
  // comment covers its own line.
  std::vector<Comment> blocks;
  for (const Comment& comment : comments) {
    if (!blocks.empty() && comment.line == blocks.back().line + 1) {
      blocks.back().text += " " + comment.text;
      blocks.back().line = comment.line;
    } else {
      blocks.push_back(comment);
    }
  }

  std::vector<Suppression> out;
  static const std::string kMarker = "bbrlint:allow(";
  for (const Comment& comment : blocks) {
    std::size_t at = 0;
    while ((at = comment.text.find(kMarker, at)) != std::string::npos) {
      const std::size_t open = at + kMarker.size();
      const std::size_t close = comment.text.find(')', open);
      at = open;
      if (close == std::string::npos) continue;
      const std::string body = comment.text.substr(open, close - open);
      const std::size_t colon = body.find(':');
      Suppression s;
      s.line = comment.line;
      if (colon == std::string::npos) {
        s.rule = trim(body);
      } else {
        s.rule = trim(body.substr(0, colon));
        s.justification = trim(body.substr(colon + 1));
      }
      // Prose that merely quotes the grammar (bbrlint:allow(RULE: ...))
      // is not a suppression attempt: real rule names are kebab-case.
      const bool rule_shaped =
          !s.rule.empty() &&
          s.rule.find_first_not_of("abcdefghijklmnopqrstuvwxyz0123456789-") ==
              std::string::npos;
      if (rule_shaped) out.push_back(std::move(s));
    }
  }
  return out;
}

bool known_checkable_rule(const std::string& name) {
  for (const RuleInfo& rule : rules()) {
    if (rule.name == name) {
      return !starts_with(rule.name, "suppression-");
    }
  }
  return false;
}

}  // namespace

const std::vector<RuleInfo>& rules() {
  static const std::vector<RuleInfo> kRules = {
      {"no-unordered-iteration",
       "no range-for / begin() over std::unordered_{map,set} where hash "
       "order could feed output order",
       {"src/sweep/", "src/orchestrator/", "src/core/", "src/metrics/",
        "src/adaptive/", "src/analysis/", "tools/"}},
      {"no-wallclock-in-hot-path",
       "no wall clock (time, system_clock, gettimeofday) or global RNG "
       "(rand, random_device) outside src/obs/",
       {"src/", "tools/", "bench/"}},
      {"atomic-io-required",
       "file writes under src/orchestrator/ must route through "
       "common/atomic_io (write + atomic rename)",
       {"src/orchestrator/"}},
      {"no-raw-fprintf",
       "stderr diagnostics go through obs::log (tagged, one write per "
       "line), never raw fprintf/perror",
       {"src/", "tools/", "bench/"}},
      {"single-writer-shard",
       "no atomic RMW (fetch_add, CAS, exchange) in src/obs/ — metric "
       "shards are single-writer, plain load + store",
       {"src/obs/"}},
      {"csv-number-required",
       "no direct float formatting (%g/%f/%e, setprecision) in result "
       "layers; the common/number codec renders every double",
       {"src/sweep/", "src/orchestrator/", "src/metrics/", "src/obs/"}},
      {"suppression-needs-justification",
       "every bbrlint:allow(rule: why) must argue its exception in-file",
       {}},
      {"suppression-unknown-rule",
       "bbrlint:allow() must name an existing checkable rule",
       {}},
      {"suppression-unused",
       "a bbrlint:allow() that matches no finding is stale and must go",
       {}},
  };
  return kRules;
}

std::vector<Finding> lint_source(const std::string& path,
                                 const std::string& content,
                                 const std::string& paired_header,
                                 std::size_t* suppressions_honored) {
  const Lexed lexed = lex(content);
  const auto& all = rules();

  std::vector<Finding> raw;
  if (in_layers(path, all[0].layers)) {
    std::set<std::string> names = unordered_names(lexed.tokens);
    if (!paired_header.empty()) {
      const std::set<std::string> header_names =
          unordered_names(lex(paired_header).tokens);
      names.insert(header_names.begin(), header_names.end());
    }
    check_unordered_iteration(path, lexed.tokens, names, raw);
  }
  if (in_layers(path, all[1].layers) && !starts_with(path, "src/obs/")) {
    check_wallclock(path, lexed.tokens, raw);
  }
  if (in_layers(path, all[2].layers) &&
      !starts_with(path, "src/common/atomic_io")) {
    check_atomic_io(path, lexed.tokens, raw);
  }
  if (in_layers(path, all[3].layers) && !starts_with(path, "src/obs/log.")) {
    check_raw_fprintf(path, lexed.tokens, raw);
  }
  if (in_layers(path, all[4].layers)) {
    check_single_writer_shard(path, lexed.tokens, raw);
  }
  if (in_layers(path, all[5].layers)) {
    check_csv_number(path, lexed.tokens, raw);
  }

  // A suppression covers its own line (trailing comment) and the next
  // (standalone comment above the offending statement).
  std::vector<Suppression> suppressions = parse_suppressions(lexed.comments);
  std::vector<Finding> findings;
  std::size_t honored = 0;
  for (Finding& finding : raw) {
    bool suppressed = false;
    for (Suppression& s : suppressions) {
      if (s.rule != finding.rule || s.justification.empty()) continue;
      if (finding.line == s.line || finding.line == s.line + 1) {
        if (!s.used) ++honored;
        s.used = true;
        suppressed = true;
        break;
      }
    }
    if (!suppressed) findings.push_back(std::move(finding));
  }
  if (suppressions_honored != nullptr) *suppressions_honored = honored;
  for (Suppression& s : suppressions) {
    if (!known_checkable_rule(s.rule)) {
      add_finding(findings, path, s.line, "suppression-unknown-rule",
                  "bbrlint:allow names unknown rule '" + s.rule + "'");
      continue;
    }
    if (s.justification.empty()) {
      add_finding(findings, path, s.line, "suppression-needs-justification",
                  "bbrlint:allow(" + s.rule +
                      ") carries no justification — write "
                      "bbrlint:allow(" + s.rule + ": why this is safe)");
      continue;
    }
    if (!s.used) {
      add_finding(findings, path, s.line, "suppression-unused",
                  "bbrlint:allow(" + s.rule +
                      ") matches no finding on this or the next line — stale "
                      "suppressions must be removed");
    }
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return findings;
}

namespace {

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("bbrlint: cannot read " + path.string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

Report lint_tree(const std::string& base, const std::vector<std::string>& roots) {
  const fs::path base_path = base.empty() ? fs::path(".") : fs::path(base);
  std::vector<std::string> files;
  for (const std::string& root : roots) {
    const fs::path root_path = base_path / root;
    if (!fs::is_directory(root_path)) {
      throw std::runtime_error("bbrlint: not a directory: " +
                               root_path.string());
    }
    for (const auto& entry : fs::recursive_directory_iterator(root_path)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".cc" && ext != ".h") continue;
      files.push_back((fs::path(root) /
                       entry.path().lexically_relative(root_path))
                          .generic_string());
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  Report report;
  for (const std::string& file : files) {
    const std::string content = read_file(base_path / file);
    std::string paired_header;
    if (file.size() > 3 && file.compare(file.size() - 3, 3, ".cc") == 0) {
      const fs::path header =
          base_path / (file.substr(0, file.size() - 3) + ".h");
      if (fs::exists(header)) paired_header = read_file(header);
    }
    std::size_t honored = 0;
    auto findings = lint_source(file, content, paired_header, &honored);
    report.suppressions_honored += honored;
    for (Finding& f : findings) report.findings.push_back(std::move(f));
    ++report.files_scanned;
  }
  return report;
}

std::string render_text(const Report& report) {
  std::string out;
  for (const Finding& f : report.findings) {
    out += f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
           f.message + "\n";
  }
  out += "bbrlint: " + std::to_string(report.findings.size()) +
         " finding(s) in " + std::to_string(report.files_scanned) +
         " file(s), " + std::to_string(report.suppressions_honored) +
         " justified suppression(s)\n";
  return out;
}

std::string render_json(const Report& report) {
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_object();
  json.key("files_scanned");
  json.value(static_cast<std::uint64_t>(report.files_scanned));
  json.key("suppressions_honored");
  json.value(static_cast<std::uint64_t>(report.suppressions_honored));
  json.key("clean");
  json.value(report.clean());
  json.key("findings");
  json.begin_array();
  for (const Finding& f : report.findings) {
    json.begin_object();
    json.key("file");
    json.value(f.file);
    json.key("line");
    json.value(static_cast<std::uint64_t>(f.line));
    json.key("rule");
    json.value(f.rule);
    json.key("message");
    json.value(f.message);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  out << "\n";
  return out.str();
}

}  // namespace bbrmodel::lint
