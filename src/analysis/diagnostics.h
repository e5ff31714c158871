// Structured diagnostics of the model/surface/store audit
// (analysis/model_audit). A diagnostic names the rule that fired, the
// severity, the model nodes involved and a fix hint, so callers can gate
// admission on error_count() and surface the report verbatim to users (the
// mcsm_lint CLI prints it as a table).
// Every diagnostic added to a report also bumps the process-wide
// lint.errors / lint.warnings / lint.infos obs counters (see obs/metrics.h),
// so a long-running server's snapshot records whether any audit complained.
#ifndef MCSM_ANALYSIS_DIAGNOSTICS_H
#define MCSM_ANALYSIS_DIAGNOSTICS_H

#include <cstddef>
#include <string>
#include <vector>

namespace mcsm::analysis {

enum class Severity {
    kError,    // the artifact will fail or produce wrong results; reject it
    kWarning,  // suspicious but simulatable; surface it
    kInfo,     // informational context (directory summaries, ...)
};

const char* to_string(Severity severity);

struct Diagnostic {
    Severity severity = Severity::kError;
    // Stable dotted rule id, e.g. "model.nonfinite-value",
    // "store.unreadable" (the full set is documented in
    // analysis/model_audit.h).
    std::string rule;
    // What is wrong, with the concrete values involved.
    std::string message;
    // Model pin / internal node names involved (may be empty).
    std::vector<std::string> nodes;
    // How to fix it (may be empty).
    std::string hint;

    // "error[model.duplicate-pin] ... nodes=A (hint)" single-line form.
    std::string format() const;
};

class LintReport {
public:
    void add(Diagnostic diagnostic);
    // Convenience for the common fields-only case.
    Diagnostic& add(Severity severity, std::string rule, std::string message);

    const std::vector<Diagnostic>& diagnostics() const { return diags_; }
    bool empty() const { return diags_.empty(); }
    std::size_t size() const { return diags_.size(); }

    std::size_t count(Severity severity) const;
    std::size_t error_count() const { return count(Severity::kError); }
    std::size_t warning_count() const { return count(Severity::kWarning); }
    bool has_errors() const { return error_count() > 0; }

    // Diagnostics whose rule id equals `rule`.
    std::vector<const Diagnostic*> by_rule(const std::string& rule) const;
    bool fired(const std::string& rule) const { return !by_rule(rule).empty(); }

    // Appends another report (e.g. per-file audits into a directory run).
    void merge(const LintReport& other);

    // Multi-line human-readable report; "" when empty.
    std::string format() const;

    // Throws ModelError carrying the formatted report when has_errors().
    // `context` prefixes the message ("ModelRepository[NOR2.MCSM.A-B]").
    void require_clean(const std::string& context) const;

private:
    std::vector<Diagnostic> diags_;
};

}  // namespace mcsm::analysis

#endif  // MCSM_ANALYSIS_DIAGNOSTICS_H
