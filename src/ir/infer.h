/**
 * @file
 * Compile-time shape inference for every op in the catalogue.
 */

#pragma once

#include <string>
#include <vector>

#include "core/dtype.h"
#include "core/shape.h"
#include "ir/attrs.h"
#include "ir/op.h"

namespace pe {

class Graph;

/**
 * Infer the output shape of a prospective node.
 *
 * @param g       graph providing the input nodes' shapes
 * @param op      operator kind
 * @param inputs  input node ids (must already exist in @p g)
 * @param attrs   node attributes
 * @param name    node name, for error messages
 * @throws std::runtime_error on rank/extent mismatches (this is the IR's
 *         type checker; malformed graphs fail at compile time, not run
 *         time).
 * @throws std::invalid_argument when a quantization op's xZp, bZp or
 *         yZp is not an int8 code in [-128, 127].
 */
Shape inferShape(const Graph &g, OpKind op, const std::vector<int> &inputs,
                 const Attrs &attrs, const std::string &name);

/** Output spatial extent of a convolution/pool window. */
int64_t convOutDim(int64_t in, int64_t kernel, int64_t stride, int64_t pad);

/**
 * Storage dtype of a prospective node's output. Determined by op kind
 * alone except for Quantize (and dtype-tagged Const/Dequantize
 * sources), whose "dtype" attr names the non-f32 storage ("i8" /
 * "f16"). Everything outside the quantization subsystem is F32.
 */
DType inferDType(OpKind op, const Attrs &attrs);

} // namespace pe
