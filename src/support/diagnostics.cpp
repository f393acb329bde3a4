#include "src/support/diagnostics.h"

#include <algorithm>
#include <cctype>
#include <iostream>
#include <mutex>
#include <ostream>
#include <sstream>
#include <tuple>

#include "src/support/json.h"

namespace copar {

std::string to_string(SourceLoc loc) {
  if (!loc.valid()) return "<unknown>";
  std::ostringstream os;
  os << loc.line << ':' << loc.column;
  return os.str();
}

std::string to_string(SourceSpan span) {
  if (!span.valid()) return "<unknown>";
  std::ostringstream os;
  os << span.begin.line << ':' << span.begin.column;
  if (span.end.valid() && span.end != span.begin) {
    os << '-' << span.end.line << ':' << span.end.column;
  }
  return os.str();
}

std::string_view severity_name(Severity s) {
  switch (s) {
    case Severity::Note: return "note";
    case Severity::Warning: return "warning";
    case Severity::Error: return "error";
  }
  return "error";
}

void DiagnosticEngine::report(Severity sev, SourceLoc loc, std::string message,
                              std::string_view code) {
  Diagnostic d;
  d.severity = sev;
  d.loc = loc;
  d.message = std::move(message);
  d.code = code;
  d.span = SourceSpan::at(loc);
  if (sev == Severity::Error) ++error_count_;
  diags_.push_back(std::move(d));
}

bool DiagnosticEngine::report(Diagnostic d) {
  if (!d.span.valid() && d.loc.valid()) d.span = SourceSpan::at(d.loc);
  if (!d.loc.valid() && d.span.valid()) d.loc = d.span.begin;
  if (!code_enabled(d.code)) {
    ++disabled_count_;
    return false;
  }
  if (suppressed(d.code, d.loc)) {
    ++suppressed_count_;
    return false;
  }
  if (d.severity == Severity::Error) ++error_count_;
  diags_.push_back(std::move(d));
  return true;
}

namespace {

/// Trims ASCII whitespace from both ends.
std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())) != 0) s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())) != 0) s.remove_suffix(1);
  return s;
}

}  // namespace

void DiagnosticEngine::load_suppressions(std::string_view source) {
  constexpr std::string_view kMarker = "copar-ignore";
  std::uint32_t line_no = 1;
  std::size_t pos = 0;
  while (pos < source.size()) {
    const std::size_t eol = source.find('\n', pos);
    const std::string_view line =
        source.substr(pos, eol == std::string_view::npos ? std::string_view::npos : eol - pos);

    const std::size_t comment = line.find("//");
    if (comment != std::string_view::npos) {
      std::string_view rest = trim(line.substr(comment + 2));
      if (rest.starts_with(kMarker)) {
        rest.remove_prefix(kMarker.size());
        rest = trim(rest);
        std::set<std::string> codes;
        if (rest.starts_with('(')) {
          const std::size_t close = rest.find(')');
          std::string_view list = rest.substr(1, close == std::string_view::npos
                                                     ? std::string_view::npos
                                                     : close - 1);
          while (!list.empty()) {
            const std::size_t comma = list.find(',');
            const std::string_view code = trim(list.substr(0, comma));
            if (!code.empty()) codes.insert(std::string(code));
            if (comma == std::string_view::npos) break;
            list.remove_prefix(comma + 1);
          }
        }
        if (codes.empty()) codes.insert("*");
        // A comment alone on its line guards the next line; a trailing
        // comment guards its own line.
        const bool own_line = trim(line.substr(0, comment)).empty();
        const std::uint32_t target = own_line ? line_no + 1 : line_no;
        suppressions_[target].insert(codes.begin(), codes.end());
      }
    }

    if (eol == std::string_view::npos) break;
    pos = eol + 1;
    ++line_no;
  }
}

bool DiagnosticEngine::suppressed(std::string_view code, SourceLoc loc) const {
  if (!loc.valid()) return false;
  const auto it = suppressions_.find(loc.line);
  if (it == suppressions_.end()) return false;
  return it->second.contains("*") || it->second.contains(std::string(code));
}

std::size_t DiagnosticEngine::count(Severity sev) const {
  return static_cast<std::size_t>(
      std::count_if(diags_.begin(), diags_.end(),
                    [sev](const Diagnostic& d) { return d.severity == sev; }));
}

void DiagnosticEngine::sort_by_location() {
  std::stable_sort(diags_.begin(), diags_.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return std::tie(a.span, a.code, a.message) <
                            std::tie(b.span, b.code, b.message);
                   });
}

std::string DiagnosticEngine::to_string() const {
  std::ostringstream os;
  for (const Diagnostic& d : diags_) {
    os << copar::to_string(d.loc) << ": " << severity_name(d.severity);
    if (d.code != "syntax") os << " [" << d.code << "]";
    os << ": " << d.message << '\n';
  }
  return os.str();
}

namespace {

/// Returns the 1-based `line` of `source` (without the newline), or empty.
std::string_view source_line(std::string_view source, std::uint32_t line) {
  std::uint32_t cur = 1;
  std::size_t pos = 0;
  while (cur < line) {
    pos = source.find('\n', pos);
    if (pos == std::string_view::npos) return {};
    ++pos;
    ++cur;
  }
  const std::size_t eol = source.find('\n', pos);
  std::string_view text =
      source.substr(pos, eol == std::string_view::npos ? std::string_view::npos : eol - pos);
  if (text.ends_with('\r')) text.remove_suffix(1);
  return text;
}

void render_caret_line(std::ostream& os, std::string_view source, SourceSpan span) {
  if (!span.valid()) return;
  const std::string_view text = source_line(source, span.begin.line);
  if (text.empty() && span.begin.column > 1) return;
  os << "    | " << text << '\n';
  os << "    | ";
  const std::size_t start = span.begin.column > 0 ? span.begin.column - 1 : 0;
  std::size_t width = 1;
  if (span.end.valid() && span.end.line == span.begin.line && span.end.column > span.begin.column) {
    width = span.end.column - span.begin.column;
  } else if (span.end.valid() && span.end.line > span.begin.line) {
    width = text.size() > start ? text.size() - start : 1;
  }
  for (std::size_t i = 0; i < start; ++i) {
    os << (i < text.size() && text[i] == '\t' ? '\t' : ' ');
  }
  os << '^';
  for (std::size_t i = 1; i < width; ++i) os << '~';
  os << '\n';
}

void json_span(support::JsonWriter& w, SourceSpan span) {
  w.begin_object();
  w.key("line");
  w.value(static_cast<std::uint64_t>(span.begin.line));
  w.key("column");
  w.value(static_cast<std::uint64_t>(span.begin.column));
  w.key("end_line");
  w.value(static_cast<std::uint64_t>(span.end.valid() ? span.end.line : span.begin.line));
  w.key("end_column");
  w.value(static_cast<std::uint64_t>(span.end.valid() ? span.end.column : span.begin.column));
  w.end_object();
}

}  // namespace

void DiagnosticEngine::render_text(std::ostream& os, std::string_view source,
                                   std::string_view file) const {
  for (const Diagnostic& d : diags_) {
    os << file << ':' << copar::to_string(d.loc) << ": " << severity_name(d.severity);
    if (!d.code.empty()) os << " [" << d.code << ']';
    os << ": " << d.message << '\n';
    render_caret_line(os, source, d.span);
    for (const DiagNote& n : d.notes) {
      if (n.span.valid()) {
        os << "  note: " << n.message << " (at " << copar::to_string(n.span.begin) << ")\n";
      } else {
        os << "  note: " << n.message << '\n';
      }
    }
  }
  os << count(Severity::Error) << " error(s), " << count(Severity::Warning) << " warning(s)";
  if (suppressed_count_ != 0) os << ", " << suppressed_count_ << " suppressed";
  os << '\n';
}

void DiagnosticEngine::render_json(std::ostream& os, std::string_view file,
                                   const std::function<void(support::JsonWriter&)>& extra) const {
  support::JsonWriter w(os);
  w.begin_object();
  w.key("file");
  w.value(file);
  w.key("findings");
  w.begin_array();
  for (const Diagnostic& d : diags_) {
    w.begin_object();
    w.key("code");
    w.value(d.code);
    w.key("severity");
    w.value(severity_name(d.severity));
    w.key("message");
    w.value(d.message);
    w.key("span");
    json_span(w, d.span);
    if (!d.notes.empty()) {
      w.key("notes");
      w.begin_array();
      for (const DiagNote& n : d.notes) {
        w.begin_object();
        w.key("message");
        w.value(n.message);
        if (n.span.valid()) {
          w.key("span");
          json_span(w, n.span);
        }
        w.end_object();
      }
      w.end_array();
    }
    if (!d.related_spans.empty()) {
      w.key("related");
      w.begin_array();
      for (const SourceSpan& s : d.related_spans) json_span(w, s);
      w.end_array();
    }
    w.end_object();
  }
  w.end_array();
  w.key("summary");
  w.begin_object();
  w.key("errors");
  w.value(static_cast<std::uint64_t>(count(Severity::Error)));
  w.key("warnings");
  w.value(static_cast<std::uint64_t>(count(Severity::Warning)));
  w.key("suppressed");
  w.value(static_cast<std::uint64_t>(suppressed_count_));
  w.end_object();
  if (extra) extra(w);
  w.end_object();
  os << '\n';
}

namespace {

std::string_view sarif_level(Severity s) {
  switch (s) {
    case Severity::Note: return "note";
    case Severity::Warning: return "warning";
    case Severity::Error: return "error";
  }
  return "error";
}

void sarif_region(support::JsonWriter& w, SourceSpan span) {
  w.key("region");
  w.begin_object();
  w.key("startLine");
  w.value(static_cast<std::uint64_t>(span.begin.line));
  w.key("startColumn");
  w.value(static_cast<std::uint64_t>(span.begin.column));
  if (span.end.valid()) {
    w.key("endLine");
    w.value(static_cast<std::uint64_t>(span.end.line));
    w.key("endColumn");
    w.value(static_cast<std::uint64_t>(span.end.column));
  }
  w.end_object();
}

void sarif_location(support::JsonWriter& w, std::string_view file, SourceSpan span) {
  w.begin_object();
  w.key("physicalLocation");
  w.begin_object();
  w.key("artifactLocation");
  w.begin_object();
  w.key("uri");
  w.value(file);
  w.end_object();
  if (span.valid()) sarif_region(w, span);
  w.end_object();
  w.end_object();
}

}  // namespace

void DiagnosticEngine::render_sarif(std::ostream& os, std::string_view file,
                                    std::span<const RuleInfo> rules) const {
  support::JsonWriter w(os);
  w.begin_object();
  w.key("version");
  w.value("2.1.0");
  w.key("$schema");
  w.value(
      "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/"
      "sarif-schema-2.1.0.json");
  w.key("runs");
  w.begin_array();
  w.begin_object();

  w.key("tool");
  w.begin_object();
  w.key("driver");
  w.begin_object();
  w.key("name");
  w.value("copar-check");
  w.key("informationUri");
  w.value("https://github.com/copar/copar");
  w.key("rules");
  w.begin_array();
  for (const RuleInfo& r : rules) {
    w.begin_object();
    w.key("id");
    w.value(r.id);
    w.key("shortDescription");
    w.begin_object();
    w.key("text");
    w.value(r.summary);
    w.end_object();
    w.key("help");
    w.begin_object();
    w.key("text");
    w.value(r.help);
    w.end_object();
    w.key("defaultConfiguration");
    w.begin_object();
    w.key("level");
    w.value(sarif_level(r.default_severity));
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.end_object();

  w.key("results");
  w.begin_array();
  for (const Diagnostic& d : diags_) {
    w.begin_object();
    w.key("ruleId");
    w.value(d.code);
    w.key("level");
    w.value(sarif_level(d.severity));
    w.key("message");
    w.begin_object();
    w.key("text");
    w.value(d.message);
    w.end_object();
    w.key("locations");
    w.begin_array();
    sarif_location(w, file, d.span);
    w.end_array();
    if (!d.related_spans.empty()) {
      w.key("relatedLocations");
      w.begin_array();
      for (const SourceSpan& s : d.related_spans) sarif_location(w, file, s);
      w.end_array();
    }
    // Witness interleavings (and other stepwise notes) become a SARIF code
    // flow so viewers can replay the schedule.
    if (!d.notes.empty()) {
      w.key("codeFlows");
      w.begin_array();
      w.begin_object();
      w.key("threadFlows");
      w.begin_array();
      w.begin_object();
      w.key("locations");
      w.begin_array();
      for (const DiagNote& n : d.notes) {
        w.begin_object();
        w.key("location");
        w.begin_object();
        w.key("message");
        w.begin_object();
        w.key("text");
        w.value(n.message);
        w.end_object();
        if (n.span.valid()) {
          w.key("physicalLocation");
          w.begin_object();
          w.key("artifactLocation");
          w.begin_object();
          w.key("uri");
          w.value(file);
          w.end_object();
          sarif_region(w, n.span);
          w.end_object();
        }
        w.end_object();
        w.end_object();
      }
      w.end_array();
      w.end_object();
      w.end_array();
      w.end_object();
      w.end_array();
    }
    w.end_object();
  }
  w.end_array();

  w.end_object();
  w.end_array();
  w.end_object();
  os << '\n';
}

void DiagnosticEngine::clear() {
  diags_.clear();
  error_count_ = 0;
  suppressed_count_ = 0;
  disabled_count_ = 0;
  suppressions_.clear();
}

void require(bool cond, std::string_view message) {
  if (!cond) throw Error(std::string(message));
}

bool warn_once(std::string_view code, const std::string& message) {
  static std::mutex mu;
  static std::set<std::string, std::less<>> seen;
  {
    const std::scoped_lock lock(mu);
    if (!seen.emplace(code).second) return false;
  }
  std::cerr << "copar: warning (" << code << "): " << message << '\n';
  return true;
}

}  // namespace copar
