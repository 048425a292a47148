#ifndef LLL_AWBQL_NATIVE_H_
#define LLL_AWBQL_NATIVE_H_

#include <string>
#include <vector>

#include "awb/model.h"
#include "awbql/query.h"
#include "core/result.h"

namespace lll::awbql {

// The native evaluator -- the "Java rewrite" arm of E5. Uses the Model's
// adjacency indexes directly; a follow step costs O(edges touched), not a
// scan of the whole edge table. `focus` is required only for queries whose
// source is `from focus`.
Result<std::vector<const awb::ModelNode*>> EvalNative(
    const Query& query, const awb::Model& model,
    const awb::ModelNode* focus = nullptr);

// The Omissions window (the UI feature that forced the rewrite): the stock
// queries the UI runs constantly. Returns label lines like
// "document-3: missing version".
std::vector<std::string> OmissionsReport(const awb::Model& model);

}  // namespace lll::awbql

#endif  // LLL_AWBQL_NATIVE_H_
