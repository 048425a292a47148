#ifndef LLL_DOCGEN_NATIVE_ENGINE_H_
#define LLL_DOCGEN_NATIVE_ENGINE_H_

#include "docgen/docgen.h"

namespace lll::docgen {

// The native engine -- the paper's Java rewrite, in C++. Architecture, per
// the paper:
//   * "a quite straightforward recursive walk over the XML structure of the
//     template, inspecting each XML element in turn";
//   * mutable accumulators: "A few lines of code let the generation state
//     include a list of table-of-contents entries and a set of visited
//     nodes";
//   * "a very modest second phase ... cramming in the tables at the
//     appropriate places by modifying the in-memory XML data structures";
//   * GenTrouble-style errors: every directive failure carries the focus
//     node and the template location as Status context, and intermediate
//     levels just propagate (one line per call site).
//
// The output document is built once and patched in place:
// stats.document_copies == 0, by construction (contrast E4).
//
// One call renders one report, sequentially, on the calling thread. Calls
// may run concurrently over one Model and one template: both are only read,
// and awbql::EvalNative and the shared query parse cache are thread-safe.
Result<DocGenResult> GenerateNative(const xml::Node* template_root,
                                    const awb::Model& model,
                                    const GenerateOptions& options = {});

// Convenience: parse template text, then generate.
Result<DocGenResult> GenerateNativeFromText(const std::string& template_xml,
                                            const awb::Model& model,
                                            const GenerateOptions& options = {});

}  // namespace lll::docgen

#endif  // LLL_DOCGEN_NATIVE_ENGINE_H_
