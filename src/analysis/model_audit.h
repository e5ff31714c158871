// Static auditor for model-side data: lookup tables, characterized CSM
// models, and serve-layer arc surfaces -- at rest (store files) or in
// memory. Catches the data defects that otherwise surface as NaN-poisoned
// transients or silently wrong served delays: non-finite payload values,
// broken axes, voltage grids that do not cover the rail range, and
// unphysical header parameters.
//
// Rules (severity / id):
//   error   table.empty               rank-0 / valueless table
//   error   table.nonfinite-value     NaN/Inf payload value
//   error   table.axis-nonfinite      NaN/Inf axis knot
//   error   table.axis-nonmonotone    knots not strictly increasing
//   error   model.inconsistent-shape  table ranks/axes vs pins/internals
//   error   model.physical-range      vdd/dv_margin/temp out of range
//   error   model.knot-coverage       voltage axis does not cover [0, vdd]
//   error   model.duplicate-pin       pin/internal name repeated
//   warning model.negative-capacitance  grounded cap (Co, C_N, Cin) < 0
//   error   surface.nonpositive-slew  slew table value <= 0
//   error   surface.bad-parameters    dt/settle not finite and positive
//   error   store.unreadable          file failed to map or load (corrupt,
//                                     truncated, bad checksum, not a pack)
//   info    store.scanned             directory summary
//
// ModelRepository runs audit_model on every model it admits, and the
// examples/mcsm_lint CLI runs audit_path over store directories.
#ifndef MCSM_ANALYSIS_MODEL_AUDIT_H
#define MCSM_ANALYSIS_MODEL_AUDIT_H

#include <string>

#include "analysis/diagnostics.h"
#include "core/model.h"
#include "serve/mapped_store.h"

namespace mcsm::analysis {

// Audits a model through its table list (core/model.h): each table is
// labelled <cell>.<canonical name> (NOR2.I_N, NOR2.Cm_A_N, ...), the axes
// every D-dimensional table shares are audited once, each Cin axis once.
LintReport audit_model(const core::CsmModel& model);

LintReport audit_surface(const serve::ArcSurfaceData& surface);

// Audits every model and surface entry of one .mcsmpack pack. A file that
// fails to map or load, or has another extension, yields a
// store.unreadable error instead of throwing.
LintReport audit_file(const std::string& path);

// Audits `path`: a pack, or a directory scanned (non-recursively) for
// *.mcsmpack files. Unknown paths yield a store.unreadable error.
LintReport audit_path(const std::string& path);

}  // namespace mcsm::analysis

#endif  // MCSM_ANALYSIS_MODEL_AUDIT_H
