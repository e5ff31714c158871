#include "analysis/diagnostics.h"

#include <sstream>
#include <utility>

#include "common/error.h"
#include "obs/metrics.h"

namespace mcsm::analysis {

const char* to_string(Severity severity) {
    switch (severity) {
        case Severity::kError:
            return "error";
        case Severity::kWarning:
            return "warning";
        case Severity::kInfo:
            return "info";
    }
    return "?";
}

namespace {

void append_names(std::ostream& os, const char* label,
                  const std::vector<std::string>& names) {
    if (names.empty()) return;
    os << ' ' << label << '=';
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (i > 0) os << ',';
        os << names[i];
    }
}

}  // namespace

std::string Diagnostic::format() const {
    std::ostringstream os;
    os << to_string(severity) << '[' << rule << "] " << message;
    append_names(os, "nodes", nodes);
    if (!hint.empty()) os << " (" << hint << ')';
    return os.str();
}

namespace {

// Every diagnostic, wherever it is raised (model/surface auditor, store
// checks), also bumps the process-wide lint.* counters so a
// snapshot shows whether any audit complained since startup.
void count_diagnostic(Severity severity) {
    static obs::Counter& errors = obs::counter("lint.errors");
    static obs::Counter& warnings = obs::counter("lint.warnings");
    static obs::Counter& infos = obs::counter("lint.infos");
    switch (severity) {
        case Severity::kError: errors.add(); break;
        case Severity::kWarning: warnings.add(); break;
        case Severity::kInfo: infos.add(); break;
    }
}

}  // namespace

void LintReport::add(Diagnostic diagnostic) {
    count_diagnostic(diagnostic.severity);
    diags_.push_back(std::move(diagnostic));
}

Diagnostic& LintReport::add(Severity severity, std::string rule,
                            std::string message) {
    count_diagnostic(severity);
    Diagnostic d;
    d.severity = severity;
    d.rule = std::move(rule);
    d.message = std::move(message);
    diags_.push_back(std::move(d));
    return diags_.back();
}

std::size_t LintReport::count(Severity severity) const {
    std::size_t n = 0;
    for (const Diagnostic& d : diags_)
        if (d.severity == severity) ++n;
    return n;
}

std::vector<const Diagnostic*> LintReport::by_rule(
    const std::string& rule) const {
    std::vector<const Diagnostic*> out;
    for (const Diagnostic& d : diags_)
        if (d.rule == rule) out.push_back(&d);
    return out;
}

void LintReport::merge(const LintReport& other) {
    diags_.insert(diags_.end(), other.diags_.begin(), other.diags_.end());
}

std::string LintReport::format() const {
    std::ostringstream os;
    for (const Diagnostic& d : diags_) os << d.format() << '\n';
    return os.str();
}

void LintReport::require_clean(const std::string& context) const {
    if (!has_errors()) return;
    std::ostringstream os;
    os << context << ": " << error_count() << " lint error(s)\n" << format();
    throw ModelError(os.str());
}

}  // namespace mcsm::analysis
