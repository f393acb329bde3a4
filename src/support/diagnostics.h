// Source locations, spans, and the diagnostics subsystem.
//
// Two layers of reporting live here:
//
//   * The front end (lexer/parser/resolver) reports problems through a
//     DiagnosticEngine rather than throwing on first error, so a caller can
//     surface every syntax error in a program at once.
//
//   * The static checkers (src/check) report *findings*: coded diagnostics
//     (`race`, `div-zero`, ...) carrying full source spans, secondary notes
//     (e.g. a witness interleaving), and related spans (the other half of a
//     racing pair). The engine owns per-code enable/disable switches and
//     `// copar-ignore(<code>)` suppression comments, and renders findings
//     as human text with caret underlines, as JSON, or as SARIF 2.1.0 for
//     code-scanning upload.
//
// Fatal internal errors in the framework itself use copar::Error.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace copar::support {
class JsonWriter;
}

namespace copar {

/// A position in analyzed source text (1-based line/column; 0 means unknown).
struct SourceLoc {
  std::uint32_t line = 0;
  std::uint32_t column = 0;

  [[nodiscard]] bool valid() const noexcept { return line != 0; }
  friend bool operator==(const SourceLoc&, const SourceLoc&) = default;
  friend auto operator<=>(const SourceLoc&, const SourceLoc&) = default;
};

/// A half-open range of source text: [begin, end). `end` names the position
/// one past the last character; an invalid end degrades to a single point.
struct SourceSpan {
  SourceLoc begin;
  SourceLoc end;

  [[nodiscard]] bool valid() const noexcept { return begin.valid(); }
  static SourceSpan at(SourceLoc point) { return SourceSpan{point, point}; }
  friend bool operator==(const SourceSpan&, const SourceSpan&) = default;
  friend auto operator<=>(const SourceSpan&, const SourceSpan&) = default;
};

/// Render "line:col" (or "<unknown>" when invalid).
std::string to_string(SourceLoc loc);
/// Render "line:col-line:col" ("line:col" for point spans).
std::string to_string(SourceSpan span);

enum class Severity { Note, Warning, Error };

std::string_view severity_name(Severity s);

/// A secondary message attached to a diagnostic (a witness step, the other
/// statement of a pair, a suggestion).
struct DiagNote {
  SourceSpan span;  // may be invalid (purely textual note)
  std::string message;
};

/// One reported problem, tied to a source location when available.
struct Diagnostic {
  Severity severity = Severity::Error;
  SourceLoc loc;        // primary point (== span.begin when span is set)
  std::string message;
  /// Stable check code ("race", "div-zero", ...; "syntax" for front-end
  /// errors). Drives per-code disabling, suppression comments, and SARIF
  /// ruleIds.
  std::string code;
  SourceSpan span;                        // full primary range
  std::vector<DiagNote> notes;            // ordered secondary messages
  std::vector<SourceSpan> related_spans;  // other program points involved
};

/// Static metadata about a check code, used by the SARIF renderer and the
/// docs/CLI catalog.
struct RuleInfo {
  std::string_view id;
  Severity default_severity = Severity::Warning;
  std::string_view summary;   // one line
  std::string_view help;      // how to read / suppress the finding
};

/// Collects diagnostics during lexing/parsing/resolution and check runs.
class DiagnosticEngine {
 public:
  // --- reporting ----------------------------------------------------------
  void report(Severity sev, SourceLoc loc, std::string message,
              std::string_view code = "syntax");
  void error(SourceLoc loc, std::string message) { report(Severity::Error, loc, std::move(message)); }
  void warning(SourceLoc loc, std::string message) { report(Severity::Warning, loc, std::move(message)); }

  /// Full-fat reporting: applies per-code disabling and `copar-ignore`
  /// suppression before storing. Returns true when the diagnostic was kept.
  bool report(Diagnostic d);

  // --- per-code switches and suppression comments -------------------------
  void disable_code(std::string_view code) { disabled_.insert(std::string(code)); }
  void enable_code(std::string_view code) { disabled_.erase(std::string(code)); }
  [[nodiscard]] bool code_enabled(std::string_view code) const {
    return !disabled_.contains(std::string(code));
  }

  /// Scans `source` for `// copar-ignore(<code>[, <code>...])` comments
  /// (also `// copar-ignore` with no list: every code). A trailing comment
  /// suppresses matching findings that start on its own line; a comment
  /// alone on a line suppresses findings starting on the next line.
  void load_suppressions(std::string_view source);

  /// True if a finding of `code` starting at `loc` is suppressed.
  [[nodiscard]] bool suppressed(std::string_view code, SourceLoc loc) const;
  [[nodiscard]] std::size_t suppressed_count() const noexcept { return suppressed_count_; }
  [[nodiscard]] std::size_t disabled_count() const noexcept { return disabled_count_; }

  // --- queries ------------------------------------------------------------
  [[nodiscard]] bool has_errors() const noexcept { return error_count_ != 0; }
  [[nodiscard]] std::size_t error_count() const noexcept { return error_count_; }
  [[nodiscard]] std::size_t count(Severity sev) const;
  [[nodiscard]] const std::vector<Diagnostic>& all() const noexcept { return diags_; }

  /// Stable output order: by primary span, then code, then message.
  void sort_by_location();

  /// All diagnostics formatted one per line, e.g. "3:7: error: unexpected ')'".
  [[nodiscard]] std::string to_string() const;

  // --- renderers ----------------------------------------------------------
  /// Human-readable rendering with caret underlines; `source` is the
  /// analyzed program text (used for the quoted lines) and `file` its name.
  void render_text(std::ostream& os, std::string_view source, std::string_view file) const;

  /// One JSON document: {file, findings: [...], summary: {...}}. `extra`,
  /// when set, is invoked inside the top-level object after `summary` so
  /// callers can append their own sections (e.g. the check tier stats) —
  /// it must emit complete key/value pairs.
  void render_json(std::ostream& os, std::string_view file,
                   const std::function<void(support::JsonWriter&)>& extra = {}) const;

  /// A SARIF 2.1.0 document with one run; `rules` provides the tool-driver
  /// rule metadata (codes absent from it still render with bare ids).
  void render_sarif(std::ostream& os, std::string_view file,
                    std::span<const RuleInfo> rules) const;

  void clear();

 private:
  std::vector<Diagnostic> diags_;
  std::size_t error_count_ = 0;
  std::size_t suppressed_count_ = 0;
  std::size_t disabled_count_ = 0;
  std::set<std::string> disabled_;
  /// line -> codes suppressed on that line ("*" = all).
  std::map<std::uint32_t, std::set<std::string>> suppressions_;
};

/// Fatal framework error (programming errors, malformed internal state).
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Throws copar::Error with the given message when `cond` is false.
void require(bool cond, std::string_view message);

/// Prints "copar: warning (<code>): <message>" to stderr the first time each
/// `code` is seen in this process; later calls with the same code are
/// dropped (a counter elsewhere should carry the repetition). Returns true
/// when the message was printed. Thread-safe — engine hot loops may call it
/// from workers.
bool warn_once(std::string_view code, const std::string& message);

}  // namespace copar
